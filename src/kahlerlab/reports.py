"""Report emission: CSV tables, JSON payloads, SVG charts, log sidecars.

Every byte that lands in a .csv, .json, or .svg file is a pure function
of the report payload: keys are sorted, floats use their shortest
round-trip form, SVG coordinates are rounded to a fixed precision, and
nothing derived from the wall clock or the filesystem enters them.
Timestamps go only to the .log sidecar, which exists for humans.
"""

import csv
import json
import math
import time

import numpy as np

REPORT_SCHEMA = "kahlerlab-report/1"

_PALETTE = ("#1f5fa8", "#c44e52", "#2e8b57", "#8172b2",
            "#b8860b", "#17becf", "#d95f02", "#5f5f5f")


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, float):
        # plain float repr even for numpy scalars (shortest round trip)
        return repr(float(value))
    return str(value)


def _native(value):
    """numpy scalars break json; coerce payloads to plain python."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value)}")


def write_csv(path, columns, rows):
    """Rows are dicts; missing keys become empty cells."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row.get(c)) for c in columns])


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2,
                            default=_native))
        fh.write("\n")


def write_log(path, lines):
    """Human-facing sidecar; the only writer allowed to see the clock."""
    stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(f"{stamp} {line}\n")


def linregress(x, y):
    """Least-squares line through ``(x, y)``: ``(slope, intercept, rvalue,
    stderr)``.

    The formulas and operation order of ``scipy.stats.linregress`` (moment
    sums from ``np.cov(bias=1)``, ``r`` clipped to [-1, 1] and NaN when both
    a variance and the covariance vanish, ``stderr`` 0 for two points), so
    fits keep their bits without scipy.  ``x`` must not be constant.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = np.nan if ssxym == 0 else 0.0
    else:
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    slope = ssxym / ssxm
    intercept = y.mean() - slope * x.mean()
    if n == 2:
        stderr = 0.0
    else:
        stderr = np.sqrt((1 - r**2) * ssym / ssxm / (n - 2))
    return slope, intercept, r, stderr


def fit_loglog(x, y):
    """Least-squares slope of log y against log x over positive pairs."""
    pairs = [(a, b) for a, b in zip(x, y)
             if a is not None and b is not None and a > 0 and b > 0]
    if len(pairs) < 2:
        return None
    lx = [math.log(a) for a, _ in pairs]
    ly = [math.log(b) for _, b in pairs]
    if max(lx) == min(lx):
        return None
    slope, intercept, r, stderr = linregress(lx, ly)
    return {"slope": float(slope),
            "intercept": float(intercept),
            "r2": float(r) ** 2,
            "stderr": float(stderr),
            "n": len(pairs)}


# ---------------------------------------------------------------------------
# SVG line charts (log-log)
# ---------------------------------------------------------------------------

_W, _H = 640.0, 420.0
_ML, _MR, _MT, _MB = 70.0, 160.0, 40.0, 50.0


def _span(values, pad=0.06):
    lo, hi = math.log10(min(values)), math.log10(max(values))
    if hi - lo < 1e-12:
        lo, hi = lo - 0.3, hi + 0.3
    gap = (hi - lo) * pad
    return lo - gap, hi + gap


def _ticks(lo, hi, count=5):
    return [lo + (hi - lo) * k / (count - 1) for k in range(count)]


def svg_chart(title, series, xlabel, ylabel, annotation=None):
    """Log-log line chart as a standalone SVG string.

    ``series`` is a list of ``{"label", "x", "y"}``; points with a
    non-positive coordinate are dropped (they have no log position).
    """
    cleaned = []
    for s in series:
        pts = [(a, b) for a, b in zip(s["x"], s["y"])
               if a is not None and b is not None and a > 0 and b > 0]
        if pts:
            cleaned.append((s["label"], pts))
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" '
           f'width="{_W:.0f}" height="{_H:.0f}" '
           f'viewBox="0 0 {_W:.0f} {_H:.0f}">',
           f'<rect width="{_W:.0f}" height="{_H:.0f}" fill="white"/>',
           f'<text x="{_ML:.2f}" y="24" font-family="sans-serif" '
           f'font-size="15" font-weight="bold">{title}</text>']
    x0, x1 = _ML, _W - _MR
    y0, y1 = _H - _MB, _MT
    if cleaned:
        xlo, xhi = _span([a for _, pts in cleaned for a, _ in pts])
        ylo, yhi = _span([b for _, pts in cleaned for _, b in pts])

        def px(v):
            return x0 + (math.log10(v) - xlo) / (xhi - xlo) * (x1 - x0)

        def py(v):
            return y0 + (math.log10(v) - ylo) / (yhi - ylo) * (y1 - y0)

        for t in _ticks(xlo, xhi):
            gx = x0 + (t - xlo) / (xhi - xlo) * (x1 - x0)
            out.append(f'<line x1="{gx:.2f}" y1="{y0:.2f}" x2="{gx:.2f}" '
                       f'y2="{y1:.2f}" stroke="#dddddd"/>')
            out.append(f'<text x="{gx:.2f}" y="{y0 + 18:.2f}" '
                       f'font-family="sans-serif" font-size="11" '
                       f'text-anchor="middle">{10 ** t:.3g}</text>')
        for t in _ticks(ylo, yhi):
            gy = y0 + (t - ylo) / (yhi - ylo) * (y1 - y0)
            out.append(f'<line x1="{x0:.2f}" y1="{gy:.2f}" x2="{x1:.2f}" '
                       f'y2="{gy:.2f}" stroke="#dddddd"/>')
            out.append(f'<text x="{x0 - 8:.2f}" y="{gy + 4:.2f}" '
                       f'font-family="sans-serif" font-size="11" '
                       f'text-anchor="end">{10 ** t:.3g}</text>')
        for idx, (label, pts) in enumerate(cleaned):
            color = _PALETTE[idx % len(_PALETTE)]
            coords = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in pts)
            out.append(f'<polyline points="{coords}" fill="none" '
                       f'stroke="{color}" stroke-width="1.8"/>')
            for a, b in pts:
                out.append(f'<circle cx="{px(a):.2f}" cy="{py(b):.2f}" '
                           f'r="2.6" fill="{color}"/>')
            ly = _MT + 16 + 18 * idx
            out.append(f'<line x1="{x1 + 12:.2f}" y1="{ly - 4:.2f}" '
                       f'x2="{x1 + 34:.2f}" y2="{ly - 4:.2f}" '
                       f'stroke="{color}" stroke-width="2.4"/>')
            out.append(f'<text x="{x1 + 40:.2f}" y="{ly:.2f}" '
                       f'font-family="sans-serif" '
                       f'font-size="11">{label}</text>')
    else:
        out.append(f'<text x="{(x0 + x1) / 2:.2f}" y="{(y0 + y1) / 2:.2f}" '
                   f'font-family="sans-serif" font-size="13" '
                   f'text-anchor="middle">no positive data</text>')
    out.append(f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" '
               f'y2="{y0:.2f}" stroke="black"/>')
    out.append(f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x0:.2f}" '
               f'y2="{y1:.2f}" stroke="black"/>')
    out.append(f'<text x="{(x0 + x1) / 2:.2f}" y="{_H - 12:.2f}" '
               f'font-family="sans-serif" font-size="12" '
               f'text-anchor="middle">{xlabel}</text>')
    out.append(f'<text x="18" y="{(y0 + y1) / 2:.2f}" '
               f'font-family="sans-serif" font-size="12" '
               f'text-anchor="middle" transform="rotate(-90 18 '
               f'{(y0 + y1) / 2:.2f})">{ylabel}</text>')
    if annotation:
        out.append(f'<text x="{x0 + 10:.2f}" y="{y1 + 16:.2f}" '
                   f'font-family="sans-serif" font-size="12" '
                   f'fill="#333333">{annotation}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
