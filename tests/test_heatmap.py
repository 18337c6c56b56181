import re

import numpy as np
import pytest

from cdmkit import (
    DimensionError,
    MasteryMatrix,
    ValidationError,
    cell_color,
    render_svg,
    save_heatmap_csv,
)
from cdmkit.responses import load_matrix_csv


def _mastery(prob, raw=None, model_ids=None, concept_ids=None):
    prob = np.asarray(prob, dtype=np.float64)
    n, k = prob.shape
    return MasteryMatrix(
        raw=prob if raw is None else np.asarray(raw, dtype=np.float64),
        prob=prob,
        normalization="clip",
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


def test_grid_validation():
    # The heatmap draws a MasteryMatrix, which checks its ids, shape and scale.
    with pytest.raises(DimensionError):
        _mastery(np.zeros((2, 2)), model_ids=("m0",))
    with pytest.raises(ValidationError, match=re.escape("prob entries outside [0, 1]")):
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


def test_grid_from_mastery_uses_probabilities():
    # raw is drawn nowhere: the cells and their colors come from prob.
    svg = render_svg(_mastery([[0.2, 0.9]], raw=[[0.4, 1.8]]))
    assert re.findall(r'data-value="([^"]+)"', svg) == ["0.2", "0.9"]
    assert re.findall(r'fill="([^"]+)"', svg) == [cell_color(0.2), cell_color(0.9)]
    assert "<!-- scale: linear over [0.0, 1.0] -->" in svg


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    values = rng.random((3, 2))
    path = tmp_path / "heatmap.csv"
    save_heatmap_csv(_mastery(values, raw=values + 2.0), path)
    mat, rows, cols = load_matrix_csv(path)
    assert rows == ("m0", "m1", "m2")
    assert cols == ("c0", "c1")
    assert np.array_equal(mat, values)
