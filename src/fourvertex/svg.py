"""Minimal SVG writer for curve and diagram output."""

from __future__ import annotations

import math


class Drawing:
    """Collects shapes and emits a standalone SVG with an auto viewBox."""

    def __init__(self, stroke_width: float = 0.01):
        self.elements: list[str] = []
        self.stroke_width = stroke_width
        self._min_x = self._min_y = math.inf
        self._max_x = self._max_y = -math.inf

    def _require(self, x: float, y: float):
        self._min_x = min(self._min_x, x)
        self._max_x = max(self._max_x, x)
        self._min_y = min(self._min_y, y)
        self._max_y = max(self._max_y, y)

    def polyline(self, points, color: str = "#000000", width: float | None = None,
                 closed: bool = False):
        pts = [(float(x), float(y)) for x, y in points]
        for x, y in pts:
            self._require(x, y)
        w = self.stroke_width if width is None else width
        tag = "polygon" if closed else "polyline"
        coords = " ".join(f"{x:.6g},{-y:.6g}" for x, y in pts)
        self.elements.append(
            f'<{tag} points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{w:.6g}"/>')

    def path(self, zs, color: str = "#000000", width: float | None = None,
             closed: bool = False):
        self.polyline([(z.real, z.imag) for z in zs], color, width, closed)

    def circle(self, cx: float, cy: float, r: float, color: str = "#000000",
               width: float | None = None, fill: str = "none"):
        self._require(cx - r, cy - r)
        self._require(cx + r, cy + r)
        w = self.stroke_width if width is None else width
        self.elements.append(
            f'<circle cx="{cx:.6g}" cy="{-cy:.6g}" r="{r:.6g}" fill="{fill}" '
            f'stroke="{color}" stroke-width="{w:.6g}"/>')

    def dot(self, x: float, y: float, r: float, color: str = "#000000"):
        self._require(x - r, y - r)
        self._require(x + r, y + r)
        self.elements.append(
            f'<circle cx="{x:.6g}" cy="{-y:.6g}" r="{r:.6g}" fill="{color}"/>')

    def arrow(self, x0: float, y0: float, x1: float, y1: float,
              color: str = "#cc0000", width: float | None = None):
        self._require(x0, y0)
        self._require(x1, y1)
        w = self.stroke_width if width is None else width
        self.elements.append(
            f'<line x1="{x0:.6g}" y1="{-y0:.6g}" x2="{x1:.6g}" y2="{-y1:.6g}" '
            f'stroke="{color}" stroke-width="{w:.6g}"/>')
        dx, dy = x1 - x0, y1 - y0
        norm = math.hypot(dx, dy)
        if norm == 0.0:
            return
        ux, uy = dx / norm, dy / norm
        head = max(4.0 * w, 0.04 * norm)
        for side in (1.0, -1.0):
            hx = x1 - head * (ux + 0.5 * side * -uy)
            hy = y1 - head * (uy + 0.5 * side * ux)
            self.elements.append(
                f'<line x1="{x1:.6g}" y1="{-y1:.6g}" x2="{hx:.6g}" y2="{-hy:.6g}" '
                f'stroke="{color}" stroke-width="{w:.6g}"/>')

    def to_string(self) -> str:
        if not self.elements:
            self._require(0.0, 0.0)
            self._require(1.0, 1.0)
        pad = 0.05 * max(self._max_x - self._min_x, self._max_y - self._min_y, 1e-9)
        x0 = self._min_x - pad
        y0 = -self._max_y - pad
        w = self._max_x - self._min_x + 2 * pad
        h = self._max_y - self._min_y + 2 * pad
        body = "\n".join(self.elements)
        return (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="{x0:.6g} {y0:.6g} {w:.6g} {h:.6g}">\n'
            f"{body}\n</svg>\n")
