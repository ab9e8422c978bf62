"""Minimal dependency-free SVG line charts.

Good enough for convergence traces and risk-curve panels; not a general
plotting library.
"""

WIDTH = 640
HEIGHT = 420
MARGIN = 52

_PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]


def _ticks(lo, hi, n=5):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    return [lo + span * i / (n - 1) for i in range(n)]


def _fmt(v):
    return f"{v:.4g}"


def _text(attrs, body):
    """A <text> element; its body is escaped, so any title or label is valid XML.

    By hand: xml.sax.saxutils imports urllib.request, about 35 ms at start-up.
    """
    body = body.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return f"<text {attrs}>{body}</text>"


def line_chart(series, title="", x_label="", y_label=""):
    """Render named (xs, ys) series as an SVG string.

    series: list of (label, xs, ys); labels may be empty to skip the legend.
    """
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    pw = WIDTH - 2 * MARGIN
    ph = HEIGHT - 2 * MARGIN

    def px(x):
        return MARGIN + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y):
        return HEIGHT - MARGIN - (y - y_lo) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{pw}" height="{ph}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if title:
        parts.append(_text(
            f'x="{WIDTH / 2}" y="{MARGIN - 24}" text-anchor="middle" '
            'font-family="sans-serif" font-size="15"', title
        ))
    for tx in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{px(tx):.2f}" y1="{HEIGHT - MARGIN}" x2="{px(tx):.2f}" '
            f'y2="{HEIGHT - MARGIN + 5}" stroke="#333"/>'
        )
        parts.append(_text(
            f'x="{px(tx):.2f}" y="{HEIGHT - MARGIN + 18}" text-anchor="middle" '
            'font-family="sans-serif" font-size="11"', _fmt(tx)
        ))
    for ty in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{MARGIN - 5}" y1="{py(ty):.2f}" x2="{MARGIN}" '
            f'y2="{py(ty):.2f}" stroke="#333"/>'
        )
        parts.append(_text(
            f'x="{MARGIN - 8}" y="{py(ty):.2f}" text-anchor="end" '
            'dominant-baseline="middle" font-family="sans-serif" '
            'font-size="11"', _fmt(ty)
        ))
    if x_label:
        parts.append(_text(
            f'x="{WIDTH / 2}" y="{HEIGHT - 10}" text-anchor="middle" '
            'font-family="sans-serif" font-size="12"', x_label
        ))
    if y_label:
        parts.append(_text(
            f'x="14" y="{HEIGHT / 2}" text-anchor="middle" '
            'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 14 {HEIGHT / 2})"', y_label
        ))

    for idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            'stroke-width="1.3"/>'
        )
        if label and idx < 10:
            ly = MARGIN + 14 + 14 * idx
            parts.append(
                f'<line x1="{WIDTH - MARGIN - 70}" y1="{ly - 4}" '
                f'x2="{WIDTH - MARGIN - 50}" y2="{ly - 4}" stroke="{color}" '
                'stroke-width="2"/>'
            )
            parts.append(_text(
                f'x="{WIDTH - MARGIN - 44}" y="{ly}" '
                'font-family="sans-serif" font-size="11"', label
            ))

    parts.append("</svg>")
    return "\n".join(parts)


def write_chart(path, series, title="", x_label="", y_label=""):
    with open(path, "w") as fh:
        fh.write(line_chart(series, title=title, x_label=x_label, y_label=y_label))
