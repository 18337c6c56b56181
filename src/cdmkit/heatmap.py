"""SVG heatmap rendering for mastery matrices.

SVG rather than raster so the output is diffable and testable: every cell
rect carries its numeric value in a ``data-value`` attribute, and the fill
color is a pure function of that value on the fixed [0, 1] scale of
``MasteryMatrix.prob``.  The matrix checks that scale, its shape and its
ids, which hold no character XML 1.0 cannot carry, so every matrix renders.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .solver import MasteryMatrix

# Linear ramp endpoints (light -> dark), as RGB channels.
_LOW = np.array([247, 251, 255], dtype=np.float64)
_SPAN = np.array([8, 48, 107], dtype=np.float64) - _LOW

_CELL = 18
_LABEL_W = 90
_LABEL_H = 70

# Markup, and the whitespace a parser would normalize in an attribute, as references.
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
                          "\t": "&#9;", "\n": "&#10;", "\r": "&#13;"})


def _ramp(values: ArrayLike) -> NDArray[np.float64]:
    """RGB channels of the ramp at ``values`` clamped to [0, 1], shape
    ``values.shape + (3,)``.  Each channel is ``lo + t * (hi - lo)`` rounded
    half to even by ``np.rint``, as ``round`` rounds a float; NaN stays NaN."""
    t = np.clip(np.asarray(values, dtype=np.float64), 0.0, 1.0)
    return np.rint(_LOW + t[..., None] * _SPAN)


def cell_color(value: float) -> str:
    """Hex fill for a value in [0, 1] under a linear two-color ramp."""
    r, g, b = map(int, _ramp(value))  # int(NaN) is a ValueError
    return f"#{r:02x}{g:02x}{b:02x}"


def render_svg(mastery: MasteryMatrix) -> str:
    """Deterministic standalone SVG of ``mastery.prob``: models as rows,
    concepts as columns, colored on the fixed [0, 1] scale.

    Every fill comes from one pass of :func:`cell_color`'s ramp over the whole
    matrix; each distinct colour is formatted once and each id escaped once."""
    n_rows, n_cols = mastery.n_models, mastery.n_concepts
    width = _LABEL_W + n_cols * _CELL
    height = _LABEL_H + n_rows * _CELL
    codes = _ramp(mastery.prob).astype(np.int64) @ np.array([1 << 16, 1 << 8, 1])
    colors, inverse = np.unique(codes.ravel(), return_inverse=True)
    palette = np.array([f"#{c:06x}" for c in colors.tolist()], dtype=object)
    fills = palette[inverse].reshape(codes.shape).tolist()
    concepts = [cid.translate(_ESCAPES) for cid in mastery.concept_ids]
    models = [mid.translate(_ESCAPES) for mid in mastery.model_ids]
    xs = [_LABEL_W + k * _CELL for k in range(n_cols)]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        "<!-- scale: linear over [0.0, 1.0] -->",
    ]
    for k, cid in enumerate(concepts):
        x = _LABEL_W + k * _CELL + _CELL // 2
        parts.append(
            f'<text x="{x}" y="{_LABEL_H - 6}" font-size="8" text-anchor="start" '
            f'transform="rotate(-60 {x} {_LABEL_H - 6})">{cid}</text>'
        )
    for j, (mid, row_fills, row_values) in enumerate(zip(models, fills, mastery.prob.tolist())):
        y = _LABEL_H + j * _CELL
        parts.append(
            f'<text x="{_LABEL_W - 4}" y="{y + _CELL - 5}" font-size="9" '
            f'text-anchor="end">{mid}</text>'
        )
        parts.extend(
            f'<rect x="{x}" y="{y}" width="{_CELL}" height="{_CELL}" fill="{fill}" '
            f'data-model="{mid}" data-concept="{cid}" data-value="{value!r}"/>'
            for x, cid, fill, value in zip(xs, concepts, row_fills, row_values)
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

