import math
import re
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdmkit import (
    DimensionError,
    MasteryMatrix,
    ValidationError,
    cell_color,
    render_svg,
)
from cdmkit.responses import load_matrix_csv, save_matrix_csv


def _mastery(prob, raw=None, model_ids=None, concept_ids=None):
    prob = np.asarray(prob, dtype=np.float64)
    n, k = prob.shape
    return MasteryMatrix(
        raw=prob if raw is None else np.asarray(raw, dtype=np.float64),
        prob=prob,
        model_ids=model_ids or tuple(f"m{j}" for j in range(n)),
        concept_ids=concept_ids or tuple(f"c{i}" for i in range(k)),
    )


def test_color_endpoints_and_midpoint():
    assert cell_color(0.0) == "#f7fbff"
    assert cell_color(1.0) == "#08306b"
    # Midpoint of the ramp: each channel rounds from the exact average.
    assert cell_color(0.5) == "#8096b5"


def test_color_is_monotone_darkening():
    reds = []
    for v in np.linspace(0, 1, 11):
        reds.append(int(cell_color(float(v))[1:3], 16))
    assert reds == sorted(reds, reverse=True)


def test_color_clamps_out_of_range():
    assert cell_color(-5.0) == cell_color(0.0)
    assert cell_color(7.0) == cell_color(1.0)


def test_color_of_nan_is_value_error():
    with pytest.raises(ValueError):
        cell_color(math.nan)


def test_grid_validation():
    # The heatmap draws a MasteryMatrix, which checks its ids, shape and scale.
    with pytest.raises(DimensionError):
        _mastery(np.zeros((2, 2)), model_ids=("m0",))
    with pytest.raises(ValidationError, match=re.escape(
        "prob: row 'm0', column 'c0' holds 1.5; values must lie in [0, 1]"
    )):
        _mastery(np.array([[1.5]]))


def test_svg_embeds_exact_values():
    values = np.array([[0.25, 0.7500000001], [1.0, 0.0]])
    svg = render_svg(_mastery(values))
    got = re.findall(r'data-value="([^"]+)"', svg)
    assert got == [repr(float(v)) for v in values.ravel()]


def test_svg_cell_count_and_labels():
    rng = np.random.default_rng(0)
    svg = render_svg(_mastery(rng.random((3, 4))))
    assert svg.count("<rect") == 12
    assert svg.count("<text") == 3 + 4
    assert 'data-model="m2"' in svg and 'data-concept="c3"' in svg
    assert svg.startswith("<svg ") and svg.endswith("</svg>\n")


def test_svg_escapes_markup_in_ids():
    svg = render_svg(_mastery([[0.5]], model_ids=('model "A" <3',), concept_ids=("a&b",)))
    assert "a&amp;b" in svg
    assert "&quot;A&quot; &lt;3" in svg
    assert "<3" not in svg


def test_svg_deterministic():
    rng = np.random.default_rng(1)
    values = rng.random((4, 5))
    assert render_svg(_mastery(values)) == render_svg(_mastery(values.copy()))


def test_svg_draws_prob_not_raw():
    # raw is drawn nowhere: the cells and their colors come from prob.
    svg = render_svg(_mastery([[0.2, 0.9]], raw=[[0.4, 1.8]]))
    assert re.findall(r'data-value="([^"]+)"', svg) == ["0.2", "0.9"]
    assert re.findall(r'fill="([^"]+)"', svg) == [cell_color(0.2), cell_color(0.9)]
    assert "<!-- scale: linear over [0.0, 1.0] -->" in svg


def test_csv_round_trip(tmp_path):
    # heatmap.csv is the prob matrix as diagnose writes it; it reads back exactly.
    rng = np.random.default_rng(2)
    values = rng.random((3, 2))
    mm = _mastery(values, raw=values + 2.0)
    path = tmp_path / "heatmap.csv"
    save_matrix_csv(mm.prob, mm.model_ids, mm.concept_ids, path, corner="model_id")
    mat, rows, cols = load_matrix_csv(path)
    assert rows == ("m0", "m1", "m2")
    assert cols == ("c0", "c1")
    assert np.array_equal(mat, values)


def test_svg_parses_and_reads_ids_back():
    # A parser normalizes a raw tab, newline or CR in an attribute value to a
    # space, and a CR in text to a newline: those three are written as references.
    model_ids = ('m&<>"\'', "tab\there", "two\nlines")
    concept_ids = ("cr\rlf\r\n", "\U0001f600 non-BMP")
    svg = render_svg(_mastery([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]],
                              model_ids=model_ids, concept_ids=concept_ids))
    doc = minidom.parseString(svg.encode("utf-8"))
    rects = doc.getElementsByTagName("rect")
    assert [(r.getAttribute("data-model"), r.getAttribute("data-concept")) for r in rects] == [
        (mid, cid) for mid in model_ids for cid in concept_ids
    ]
    labels = [t.firstChild.data for t in doc.getElementsByTagName("text")]
    assert labels == [*concept_ids, *model_ids]


@pytest.mark.parametrize("char", ["\x00", "\x01", "\x1f", "\ud800", "\ufffe", "\uffff"])
def test_svg_refuses_id_xml_cannot_carry(char):
    # The matrix refuses the id before render_svg sees it, so every matrix renders.
    with pytest.raises(ValidationError, match=re.escape(f"id {'a' + char + 'b'!r} holds")):
        render_svg(_mastery([[0.5]], model_ids=("a" + char + "b",)))


# ---------------------------------------------------------------------------
# render_svg against a per-cell reference
# ---------------------------------------------------------------------------

_RAMP = ((247, 8), (251, 48), (255, 107))


def _reference_color(value):
    t = min(max(value, 0.0), 1.0)
    rgb = [round(lo + t * (hi - lo)) for lo, hi in _RAMP]
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def _reference_esc(text):
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _reference_render_svg(mastery):
    """The per-cell renderer: two colour and escape calls for every cell."""
    n_rows, n_cols = mastery.n_models, mastery.n_concepts
    width = 90 + n_cols * 18
    height = 70 + n_rows * 18
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        "<!-- scale: linear over [0.0, 1.0] -->",
    ]
    for k, cid in enumerate(mastery.concept_ids):
        x = 90 + k * 18 + 9
        parts.append(
            f'<text x="{x}" y="64" font-size="8" text-anchor="start" '
            f'transform="rotate(-60 {x} 64)">{_reference_esc(cid)}</text>'
        )
    for j, mid in enumerate(mastery.model_ids):
        y = 70 + j * 18
        parts.append(
            f'<text x="86" y="{y + 13}" font-size="9" '
            f'text-anchor="end">{_reference_esc(mid)}</text>'
        )
        for k in range(n_cols):
            value = float(mastery.prob[j, k])
            parts.append(
                f'<rect x="{90 + k * 18}" y="{y}" width="18" height="18" '
                f'fill="{_reference_color(value)}" '
                f'data-model="{_reference_esc(mastery.model_ids[j])}" '
                f'data-concept="{_reference_esc(mastery.concept_ids[k])}" '
                f'data-value="{repr(value)}"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _half_points():
    """Every t in [0, 1] at which some channel's ramp value is exactly k + 0.5,
    where rounding half to even decides the colour."""
    points = set()
    for lo, hi in _RAMP:
        for k in range(min(lo, hi), max(lo, hi)):
            t = (k + 0.5 - lo) / (hi - lo)
            for near in (math.nextafter(t, -1.0), t, math.nextafter(t, 2.0)):
                if 0.0 <= near <= 1.0 and lo + near * (hi - lo) == k + 0.5:
                    points.add(near)
    return sorted(points)


_HALF_POINTS = _half_points()
_prob_values = (
    st.floats(0.0, 1.0)
    | st.sampled_from(_HALF_POINTS)
    | st.sampled_from([0.0, -0.0, 1.0, 5e-324, 2.2250738585072014e-308, 1e-310])
)
_ids = st.text(st.sampled_from('ab&<>"\'é'), min_size=1, max_size=4)


@st.composite
def _masteries(draw):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 5))
    prob = np.array(draw(st.lists(_prob_values, min_size=n * k, max_size=n * k))).reshape(n, k)
    return _mastery(
        prob,
        model_ids=tuple(draw(st.lists(_ids, min_size=n, max_size=n, unique=True))),
        concept_ids=tuple(draw(st.lists(_ids, min_size=k, max_size=k, unique=True))),
    )


def test_half_points_exist():
    # Each channel spans 239, 203 and 148 steps, and most of its midpoints are exact.
    assert len(_HALF_POINTS) > 300


@settings(max_examples=200, deadline=None)
@given(_masteries())
def test_render_svg_matches_per_cell_reference(mastery):
    assert render_svg(mastery) == _reference_render_svg(mastery)


def test_render_svg_matches_reference_on_every_half_point():
    prob = np.array([_HALF_POINTS])
    mastery = _mastery(prob, concept_ids=tuple(f"c&{i}" for i in range(prob.shape[1])))
    assert render_svg(mastery) == _reference_render_svg(mastery)
