"""Minimal self-rendered SVG plots (polylines and axes, no dependencies).

Plots are derived views: they never alter the numerical CSV content.
"""

from __future__ import annotations

import math

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 30, 50

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-12 * step:
        out.append(round(v, 12))
        v += step
    return out


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:g}"


def render_svg(series: list[tuple[str, list[float], list[float]]],
               xlabel: str, ylabel: str, title: str = "",
               logx: bool = False, logy: bool = False,
               markers: bool = False) -> str:
    """Render named (x, y) series to an SVG document string.

    Log-scaled axes transform the data to log10; non-positive points are
    dropped from log-scaled series.
    """
    # each series' drawn points, on the plotted axes
    shown = [[(math.log10(x) if logx else x, math.log10(y) if logy else y)
              for x, y in zip(xs, ys) if not ((logx and x <= 0) or (logy and y <= 0))]
             for _, xs, ys in series]
    pts = [p for points in shown for p in points] or [(0.0, 0.0), (1.0, 1.0)]
    xs_all, ys_all = zip(*pts)
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad_y = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return MARGIN_T + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    for xv in _ticks(x_lo, x_hi):
        X = px(xv)
        parts.append(f'<line x1="{X:.1f}" y1="{MARGIN_T + plot_h}" x2="{X:.1f}" '
                     f'y2="{MARGIN_T + plot_h + 5}" stroke="#333"/>')
        label = _fmt(10 ** xv) if logx else _fmt(xv)
        parts.append(f'<text x="{X:.1f}" y="{MARGIN_T + plot_h + 18}" font-size="11" '
                     f'text-anchor="middle" font-family="sans-serif">{label}</text>')
    for yv in _ticks(y_lo, y_hi):
        Y = py(yv)
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{Y:.1f}" x2="{MARGIN_L}" '
                     f'y2="{Y:.1f}" stroke="#333"/>')
        label = _fmt(10 ** yv) if logy else _fmt(yv)
        parts.append(f'<text x="{MARGIN_L - 8}" y="{Y + 4:.1f}" font-size="11" '
                     f'text-anchor="end" font-family="sans-serif">{label}</text>')
    parts.append(f'<text x="{MARGIN_L + plot_w / 2}" y="{HEIGHT - 12}" font-size="13" '
                 f'text-anchor="middle" font-family="sans-serif">{xlabel}</text>')
    parts.append(f'<text x="16" y="{MARGIN_T + plot_h / 2}" font-size="13" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'transform="rotate(-90 16 {MARGIN_T + plot_h / 2})">{ylabel}</text>')
    if title:
        parts.append(f'<text x="{MARGIN_L + plot_w / 2}" y="18" font-size="14" '
                     f'text-anchor="middle" font-family="sans-serif">{title}</text>')

    for idx, ((name, _, _), points) in enumerate(zip(series, shown)):
        color = _COLORS[idx % len(_COLORS)]
        coords = [(px(x), py(y)) for x, y in points]
        if not coords:
            continue
        if markers or len(coords) == 1:
            for X, Y in coords:
                parts.append(f'<circle cx="{X:.1f}" cy="{Y:.1f}" r="2.2" fill="{color}"/>')
        else:
            path = " ".join(f"{X:.1f},{Y:.1f}" for X, Y in coords)
            parts.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                         'stroke-width="1.5"/>')
        if name:
            Yl = MARGIN_T + 16 + 16 * idx
            parts.append(f'<line x1="{WIDTH - 150}" y1="{Yl - 4}" x2="{WIDTH - 130}" '
                         f'y2="{Yl - 4}" stroke="{color}" stroke-width="2"/>')
            parts.append(f'<text x="{WIDTH - 125}" y="{Yl}" font-size="11" '
                         f'font-family="sans-serif">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
