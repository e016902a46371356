"""Static SVG line charts for trace quantities.

No scripting, no external assets: the files exist so rate curves can be
reviewed in any browser or embedded in notes. Output is deterministic for
identical inputs.
"""

import math

import numpy as np

WIDTH = 880
HEIGHT = 540
MARGIN_L = 72
MARGIN_R = 168
MARGIN_T = 42
MARGIN_B = 52

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf")

# a linear axis gets about this many ticks
LINEAR_TICKS = 6

# TODO: minor tick marks between decades on log axes.


def _nice_linear_ticks(lo: float, hi: float):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / (LINEAR_TICKS - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if span / step <= LINEAR_TICKS:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


def _decade_ticks(lo: float, hi: float):
    k0 = math.floor(math.log10(lo))
    k1 = math.ceil(math.log10(hi))
    return [10.0**k for k in range(int(k0), int(k1) + 1)]


def _fmt_tick(v: float) -> str:
    if v != 0.0 and (abs(v) >= 1e4 or abs(v) < 1e-3):
        return f"{v:.0e}"
    return f"{v:g}"


def render_line_chart(series, *, loglog: bool, title: str, ylabel: str) -> str:
    """Render labeled (x, y) series against n to an SVG document string.

    series is an iterable of (label, xs, ys). Non-finite points are
    dropped; in log-log mode non-positive points are dropped too.
    """
    cleaned = []
    for label, xs, ys in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        keep = np.isfinite(xs) & np.isfinite(ys)
        if loglog:
            keep &= (xs > 0.0) & (ys > 0.0)
        if np.any(keep):
            cleaned.append((label, xs[keep], ys[keep]))

    body = []
    body.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="13">'
    )
    body.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    body.append(
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" font-size="16">{title}</text>'
    )

    if not cleaned:
        body.append(
            f'<text x="{WIDTH / 2:.1f}" y="{HEIGHT / 2:.1f}" text-anchor="middle">no plottable data</text>'
        )
        body.append("</svg>")
        return "\n".join(body) + "\n"

    x_lo = min(float(np.min(xs)) for _, xs, _ in cleaned)
    x_hi = max(float(np.max(xs)) for _, xs, _ in cleaned)
    y_lo = min(float(np.min(ys)) for _, _, ys in cleaned)
    y_hi = max(float(np.max(ys)) for _, _, ys in cleaned)

    if loglog:
        tx = lambda v: math.log10(v)
        x_ticks = _decade_ticks(x_lo, x_hi)
        y_ticks = _decade_ticks(y_lo, y_hi)
        x_lo_t, x_hi_t = tx(x_ticks[0]), tx(x_ticks[-1])
        y_lo_t, y_hi_t = tx(y_ticks[0]), tx(y_ticks[-1])
    else:
        tx = lambda v: v
        pad = 0.05 * max(y_hi - y_lo, 1e-300)
        y_lo -= pad
        y_hi += pad
        x_ticks = _nice_linear_ticks(x_lo, x_hi)
        y_ticks = _nice_linear_ticks(y_lo, y_hi)
        x_lo_t, x_hi_t = x_lo, x_hi
        y_lo_t, y_hi_t = y_lo, y_hi
    if x_hi_t <= x_lo_t:
        x_hi_t = x_lo_t + 1.0
    if y_hi_t <= y_lo_t:
        y_hi_t = y_lo_t + 1.0

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(v):
        return MARGIN_L + plot_w * (tx(v) - x_lo_t) / (x_hi_t - x_lo_t)

    def py(v):
        return MARGIN_T + plot_h * (1.0 - (tx(v) - y_lo_t) / (y_hi_t - y_lo_t))

    for t in x_ticks:
        x = px(t)
        body.append(
            f'<line x1="{x:.2f}" y1="{MARGIN_T}" x2="{x:.2f}" y2="{MARGIN_T + plot_h}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        body.append(
            f'<text x="{x:.2f}" y="{MARGIN_T + plot_h + 18}" text-anchor="middle">{_fmt_tick(t)}</text>'
        )
    for t in y_ticks:
        y = py(t)
        body.append(
            f'<line x1="{MARGIN_L}" y1="{y:.2f}" x2="{MARGIN_L + plot_w}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        body.append(
            f'<text x="{MARGIN_L - 6}" y="{y + 4:.2f}" text-anchor="end">{_fmt_tick(t)}</text>'
        )
    body.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333"/>'
    )
    body.append(
        f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 12}" text-anchor="middle">n</text>'
    )
    yc = MARGIN_T + plot_h / 2
    body.append(
        f'<text x="18" y="{yc:.1f}" text-anchor="middle" transform="rotate(-90 18 {yc:.1f})">{ylabel}</text>'
    )

    for i, (label, xs, ys) in enumerate(cleaned):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        body.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>'
        )
        ly = MARGIN_T + 14 + 18 * i
        lx = MARGIN_L + plot_w + 10
        body.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        body.append(f'<text x="{lx + 28}" y="{ly}">{label}</text>')

    body.append("</svg>")
    return "\n".join(body) + "\n"
