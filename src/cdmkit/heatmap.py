"""SVG heatmap rendering for mastery matrices.

SVG rather than raster so the output is diffable and testable: every cell
rect carries its numeric value in a ``data-value`` attribute, and the fill
color is a pure function of that value on the fixed [0, 1] scale of
``MasteryMatrix.prob``, which the matrix itself checks along with its ids
and shape.
"""

from __future__ import annotations

from .solver import MasteryMatrix

# Linear ramp endpoints (light -> dark).
_LOW_RGB = (247, 251, 255)
_HIGH_RGB = (8, 48, 107)

_CELL = 18
_LABEL_W = 90
_LABEL_H = 70


def cell_color(value: float) -> str:
    """Hex fill for a value in [0, 1] under a linear two-color ramp."""
    t = min(max(value, 0.0), 1.0)
    rgb = [round(lo + t * (hi - lo)) for lo, hi in zip(_LOW_RGB, _HIGH_RGB)]
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def _esc(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def render_svg(mastery: MasteryMatrix) -> str:
    """Deterministic standalone SVG of ``mastery.prob``: models as rows,
    concepts as columns, colored on the fixed [0, 1] scale."""
    n_rows, n_cols = mastery.n_models, mastery.n_concepts
    width = _LABEL_W + n_cols * _CELL
    height = _LABEL_H + n_rows * _CELL
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        "<!-- scale: linear over [0.0, 1.0] -->",
    ]
    for k, cid in enumerate(mastery.concept_ids):
        x = _LABEL_W + k * _CELL + _CELL // 2
        parts.append(
            f'<text x="{x}" y="{_LABEL_H - 6}" font-size="8" text-anchor="start" '
            f'transform="rotate(-60 {x} {_LABEL_H - 6})">{_esc(cid)}</text>'
        )
    for j, mid in enumerate(mastery.model_ids):
        y = _LABEL_H + j * _CELL
        parts.append(
            f'<text x="{_LABEL_W - 4}" y="{y + _CELL - 5}" font-size="9" '
            f'text-anchor="end">{_esc(mid)}</text>'
        )
        for k in range(n_cols):
            value = float(mastery.prob[j, k])
            parts.append(
                f'<rect x="{_LABEL_W + k * _CELL}" y="{y}" width="{_CELL}" height="{_CELL}" '
                f'fill="{cell_color(value)}" '
                f'data-model="{_esc(mastery.model_ids[j])}" data-concept="{_esc(mastery.concept_ids[k])}" '
                f'data-value="{repr(value)}"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def save_heatmap_csv(mastery: MasteryMatrix, path) -> None:
    """The heatmap's values, ``mastery.prob``, as a labelled matrix CSV."""
    from .responses import save_matrix_csv

    save_matrix_csv(mastery.prob, mastery.model_ids, mastery.concept_ids, path, corner="model_id")
