"""Minimal static SVG emission for log-log sweep plots.

Hand-built markup (no scripts, no external renderer) so output is
byte-for-byte reproducible. One scatter series per Bregman step plus
straight reference/fit lines in log-log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = ["Series", "Line", "svg_loglog"]

WIDTH, HEIGHT = 720, 540
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 80, 30, 50, 70
PALETTE = ["#1f6fb4", "#d1495b", "#3d8f5f", "#8a5fbf", "#c77f2e", "#4a4a4a"]


@dataclass(frozen=True)
class Series:
    label: str
    xs: Sequence[float]
    ys: Sequence[float]


@dataclass(frozen=True)
class Line:
    """y = 10^intercept10 * x^slope in the data plane."""

    label: str
    slope: float
    intercept10: float
    dashed: bool = True


def _text(s: str) -> str:
    """s as XML text content: &, < and > escaped. Written out, as importing
    ``html.escape`` loads ``html.entities``, about 0.4 MB of resident memory."""
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks(lo: float, hi: float) -> list[int]:
    return list(range(math.ceil(lo - 1e-9), math.floor(hi + 1e-9) + 1))


def svg_loglog(
    path: str,
    series: Sequence[Series],
    lines: Sequence[Line] = (),
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> None:
    """Write a log-log plot of ``series`` and ``lines`` to ``path``; the title
    and every label are escaped as XML text, so any string is drawn as is."""
    pts = [(math.log10(x), math.log10(y)) for s in series for x, y in zip(s.xs, s.ys)]
    if not pts:
        raise ValueError("nothing to plot")
    lx = [p[0] for p in pts]
    ly = [p[1] for p in pts]
    pad = 0.15
    x_lo, x_hi = min(lx) - pad, max(lx) + pad
    y_lo, y_hi = min(ly) - pad, max(ly) + pad

    def sx(logx: float) -> float:
        return MARGIN_L + (logx - x_lo) / (x_hi - x_lo) * (WIDTH - MARGIN_L - MARGIN_R)

    def sy(logy: float) -> float:
        return HEIGHT - MARGIN_B - (logy - y_lo) / (y_hi - y_lo) * (HEIGHT - MARGIN_T - MARGIN_B)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="28" text-anchor="middle" font-family="sans-serif" '
        f'font-size="16">{_text(title)}</text>',
    ]
    # frame
    out.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{WIDTH - MARGIN_L - MARGIN_R}" '
        f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" stroke="#333"/>'
    )
    # decade grid and tick labels
    for t in _ticks(x_lo, x_hi):
        px = sx(t)
        out.append(
            f'<line x1="{px:.1f}" y1="{MARGIN_T}" x2="{px:.1f}" y2="{HEIGHT - MARGIN_B}" '
            f'stroke="#ddd"/>'
        )
        out.append(
            f'<text x="{px:.1f}" y="{HEIGHT - MARGIN_B + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">1e{t}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        py = sy(t)
        out.append(
            f'<line x1="{MARGIN_L}" y1="{py:.1f}" x2="{WIDTH - MARGIN_R}" y2="{py:.1f}" '
            f'stroke="#ddd"/>'
        )
        out.append(
            f'<text x="{MARGIN_L - 8}" y="{py + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">1e{t}</text>'
        )
    out.append(
        f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2:.1f}" y="{HEIGHT - 20}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="14">{_text(xlabel)}</text>'
    )
    out.append(
        f'<text x="22" y="{(MARGIN_T + HEIGHT - MARGIN_B) / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" '
        f'transform="rotate(-90 22 {(MARGIN_T + HEIGHT - MARGIN_B) / 2:.1f})">{_text(ylabel)}</text>'
    )
    # reference / fit lines clipped to the frame's x-range
    for i, line in enumerate(lines):
        color = PALETTE[(len(series) + i) % len(PALETTE)]
        ys0 = line.slope * x_lo + line.intercept10
        ys1 = line.slope * x_hi + line.intercept10
        dash = ' stroke-dasharray="6 4"' if line.dashed else ""
        out.append(
            f'<line x1="{sx(x_lo):.1f}" y1="{sy(ys0):.1f}" x2="{sx(x_hi):.1f}" '
            f'y2="{sy(ys1):.1f}" stroke="{color}" stroke-width="1.5"{dash}/>'
        )
        out.append(
            f'<text x="{WIDTH - MARGIN_R - 6}" y="{sy(ys1) - 6:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12" fill="{color}">{_text(line.label)}</text>'
        )
    # scatter series
    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        for x, y in zip(s.xs, s.ys):
            out.append(
                f'<circle cx="{sx(math.log10(x)):.1f}" cy="{sy(math.log10(y)):.1f}" r="3.5" '
                f'fill="{color}"/>'
            )
        out.append(
            f'<text x="{MARGIN_L + 10}" y="{MARGIN_T + 20 + 16 * i}" font-family="sans-serif" '
            f'font-size="12" fill="{color}">{_text(s.label)}</text>'
        )
    out.append("</svg>")
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(out) + "\n")
