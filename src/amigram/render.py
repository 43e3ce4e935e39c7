"""SVG diagrams of parallelograms.

The only floating-point code in the package lives here, and only to place
vertices on the page: a shape with base b, height h, and side s is drawn
with corners (0,0), (b,0), (b+x,h), (x,h) where x = sqrt(s^2 - h^2).  The
inner difference s^2 - h^2 is an exact ratio of integers, rounded once to a
float before the square root, so coordinates are correct to double-precision
rounding.  All numbers are printed with fixed 9-decimal formatting to keep
output byte-stable.
An invalid :class:`RenderSpec`, a canvas too small for its margins, or a
canvas or shape too large for a float, is refused with :class:`RenderError`.
"""

from __future__ import annotations

import math

from . import amicability
from .core import HeronianError, Parallelogram, int_to_decimal, require_int, value_type

_LABEL_BAND = 28  # px reserved under the shapes for the caption line
_FONT_SIZE = 13


class RenderError(HeronianError):
    """The canvas is too small, or the canvas or shape too large, to draw."""


@value_type
class RenderSpec:
    """What to draw and how large the canvas is, in pixels.

    Checked when built: a shape that is not a ``Parallelogram``, an
    ``include_companion`` that is not a bool, a width or height below 1 or a
    negative margin is a :class:`RenderError`, and a dimension that is not
    an int (a bool included) is a ``NonIntegerDimension``.
    """

    parallelogram: Parallelogram
    include_companion: bool = False
    width: int = 640
    height: int = 360
    margin: int = 24

    def __post_init__(self) -> None:
        if type(self.parallelogram) is not Parallelogram:
            raise RenderError(
                f"can only draw a Parallelogram, got {type(self.parallelogram).__name__}"
            )
        if type(self.include_companion) is not bool:
            raise RenderError(
                "include_companion must be a bool, got "
                f"{type(self.include_companion).__name__}"
            )
        for name, least in (("width", 1), ("height", 1), ("margin", 0)):
            value = getattr(self, name)
            require_int(value, name)
            if value < least:
                raise RenderError(
                    f"{name} must be at least {least}, got {int_to_decimal(value)}"
                )


def model_vertices(shape: Parallelogram) -> list[tuple[float, float]]:
    """Unscaled vertex coordinates, y growing upward.

    The shear offset sqrt(side^2 - height^2) is well-defined because the
    height never exceeds the side.
    """
    base, side, area = shape.base, shape.side, shape.area
    try:
        # side^2 - (area/base)^2 as one exact integer ratio; int / int is
        # correctly rounded, so each float is the exact value rounded once.
        offset = math.sqrt(((side * base) ** 2 - area * area) / (base * base))
        h = area / base
        b = float(base)
    except OverflowError as exc:
        raise RenderError(f"shape too large to draw: {exc}") from None
    return [(0.0, 0.0), (b, 0.0), (b + offset, h), (offset, h)]


def _caption(shape: Parallelogram) -> str:
    return (
        f"base={shape.base} side={shape.side} "
        f"area={shape.area} perimeter={shape.perimeter}"
    )


def _fmt(value: float) -> str:
    return f"{value:.9f}"


def render_svg(spec: RenderSpec) -> str:
    """Standalone SVG text for the spec's parallelogram.

    With ``include_companion`` the deterministic companion is drawn beside
    it at the same scale; that raises NotAmicable when no companion exists.
    """
    shapes = [spec.parallelogram]
    if spec.include_companion:
        shapes.append(amicability.companion(spec.parallelogram))

    polygons = [model_vertices(shape) for shape in shapes]
    widths = [max(x for x, _ in poly) for poly in polygons]
    tallest = max(max(y for _, y in poly) for poly in polygons)

    # One margin each side and one between shapes.
    avail_w = spec.width - (len(shapes) + 1) * spec.margin
    avail_h = spec.height - 2 * spec.margin - _LABEL_BAND
    if avail_w <= 0 or avail_h <= 0:
        raise RenderError("canvas too small for the requested margins")
    try:
        scale = min(avail_w / sum(widths), avail_h / tallest)
    except OverflowError as exc:
        raise RenderError(f"canvas too large to draw: {exc}") from None

    baseline = spec.margin + avail_h  # px row where model y = 0 sits
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{spec.width}" '
        f'height="{spec.height}" viewBox="0 0 {spec.width} {spec.height}">',
    ]
    cursor = float(spec.margin)
    for shape, poly, model_w in zip(shapes, polygons, widths):
        points = " ".join(
            f"{_fmt(cursor + x * scale)},{_fmt(baseline - y * scale)}"
            for x, y in poly
        )
        parts.append(
            f'<polygon points="{points}" fill="none" stroke="#000000" '
            'stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_fmt(cursor)}" y="{baseline + _LABEL_BAND - 8}" '
            f'font-family="monospace" font-size="{_FONT_SIZE}">'
            f"{_caption(shape)}</text>"
        )
        cursor += model_w * scale + spec.margin
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
