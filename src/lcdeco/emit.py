"""Deterministic file emission: CSV, standalone SVG plots, digests.

Output bytes are a pure function of the data passed in: floats are
printed with 17 significant digits (exact round-trip), newlines are
always "\\n", and nothing here reads clocks or global state.
"""

import csv
import hashlib
import io
import json
import math

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def format_float(x):
    """17-significant-digit decimal; float(format_float(x)) == x."""
    return format(float(x), ".17g")


def _cell(value):
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    return _quote(str(value))


def _quote(text):
    if any(ch in text for ch in (",", '"', "\n", "\r")):
        return '"%s"' % text.replace('"', '""')
    return text


# ---------------------------------------------------------------------------
# CSV

def emit_csv(path, columns, rows, meta=None, meta_lines=None):
    """Write a CSV with an optional '#'-prefixed metadata comment block.

    meta: ordered (key, value) pairs rendered as '# key = value';
    meta_lines: preformatted comment lines taken verbatim (used to
    round-trip a file read back with read_csv).
    """
    out = []
    if meta_lines is not None:
        out.extend(meta_lines)
    if meta is not None:
        for key, value in meta:
            out.append("# %s = %s" % (key, _cell(value)
                                      if not isinstance(value, str)
                                      else value))
    out.append(",".join(_quote(str(c)) for c in columns))
    for row in rows:
        out.append(",".join(_cell(v) for v in row))
    data = "\n".join(out) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(data)
    return path


def read_csv(path):
    """Read back an emitted CSV → (meta_lines, columns, rows-of-strings)."""
    meta_lines = []
    body = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for line in fh.read().splitlines():
            if line.startswith("#") and not body:
                meta_lines.append(line)
            else:
                body.append(line)
    parsed = list(csv.reader(io.StringIO("\n".join(body))))
    if not parsed:
        raise ValueError("%s: no CSV content" % path)
    return meta_lines, parsed[0], parsed[1:]


# ---------------------------------------------------------------------------
# SVG

def _nice_ticks(lo, hi, target=6):
    span = hi - lo
    raw = span / max(target, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * mag
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(v) < 1e-12 * span else v)
        v += step
    return ticks


def _tick_label(v):
    return "%g" % (round(v, 12),)


def emit_svg(path, x, series, labels, title="", xlabel="", ylabel=""):
    """Standalone 960 × 560 px multi-line plot: one polyline per series,
    shared x.

    Purely geometric output — fixed palette, fixed layout, coordinates
    rounded to 0.01 px — so the same data always yields the same bytes.
    """
    if len(series) == 0 or len(series) != len(labels):
        raise ValueError("need one label per series")
    xs = [float(v) for v in x]
    if any(not math.isfinite(v) for v in xs):
        raise ValueError("non-finite x values")
    ys_all = []
    for s in series:
        ys = [float(v) for v in s]
        if len(ys) != len(xs):
            raise ValueError("series length %d != x length %d"
                             % (len(ys), len(xs)))
        if any(not math.isfinite(v) for v in ys):
            raise ValueError("non-finite series values")
        ys_all.append(ys)
    xlo, xhi = min(xs), max(xs)
    ylo = min(min(ys) for ys in ys_all)
    yhi = max(max(ys) for ys in ys_all)
    if xhi == xlo:
        xlo, xhi = xlo - 1.0, xhi + 1.0
    if yhi == ylo:
        ylo, yhi = ylo - 1.0, yhi + 1.0
    pad = 0.05 * (yhi - ylo)
    ylo -= pad
    yhi += pad
    width, height = 960, 560
    left, right, top, bottom = 72, 24, 44, 56
    pw = width - left - right
    ph = height - top - bottom

    def px(v):
        return left + (v - xlo) / (xhi - xlo) * pw

    def py(v):
        return top + (yhi - v) / (yhi - ylo) * ph

    e = []
    e.append('<svg xmlns="http://www.w3.org/2000/svg" width="%d" '
             'height="%d" viewBox="0 0 %d %d">' % (width, height,
                                                   width, height))
    e.append('<rect x="0" y="0" width="%d" height="%d" fill="#ffffff"/>'
             % (width, height))
    for tv in _nice_ticks(xlo, xhi):
        xpix = px(tv)
        e.append('<line x1="%.2f" y1="%d" x2="%.2f" y2="%d" '
                 'stroke="#dddddd" stroke-width="1"/>'
                 % (xpix, top, xpix, top + ph))
        e.append('<text x="%.2f" y="%d" font-family="sans-serif" '
                 'font-size="12" fill="#444444" text-anchor="middle">%s'
                 '</text>' % (xpix, top + ph + 18, _tick_label(tv)))
    for tv in _nice_ticks(ylo, yhi):
        ypix = py(tv)
        e.append('<line x1="%d" y1="%.2f" x2="%d" y2="%.2f" '
                 'stroke="#dddddd" stroke-width="1"/>'
                 % (left, ypix, left + pw, ypix))
        e.append('<text x="%d" y="%.2f" font-family="sans-serif" '
                 'font-size="12" fill="#444444" text-anchor="end">%s'
                 '</text>' % (left - 6, ypix + 4, _tick_label(tv)))
    e.append('<rect x="%d" y="%d" width="%d" height="%d" fill="none" '
             'stroke="#333333" stroke-width="1"/>' % (left, top, pw, ph))
    for i, ys in enumerate(ys_all):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join("%.2f,%.2f" % (px(xv), py(yv))
                       for xv, yv in zip(xs, ys))
        e.append('<polyline points="%s" fill="none" stroke="%s" '
                 'stroke-width="1.5"/>' % (pts, color))
    if title:
        e.append('<text x="%.1f" y="26" font-family="sans-serif" '
                 'font-size="16" fill="#111111" text-anchor="middle">%s'
                 '</text>' % (width / 2.0, _esc(title)))
    if xlabel:
        e.append('<text x="%.1f" y="%d" font-family="sans-serif" '
                 'font-size="13" fill="#111111" text-anchor="middle">%s'
                 '</text>' % (left + pw / 2.0, height - 12, _esc(xlabel)))
    if ylabel:
        ypix = top + ph / 2.0
        e.append('<text x="16" y="%.1f" font-family="sans-serif" '
                 'font-size="13" fill="#111111" text-anchor="middle" '
                 'transform="rotate(-90 16 %.1f)">%s</text>'
                 % (ypix, ypix, _esc(ylabel)))
    lx = left + pw - 150
    ly = top + 14
    for i, label in enumerate(labels):
        color = PALETTE[i % len(PALETTE)]
        e.append('<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" '
                 'stroke-width="2"/>' % (lx, ly + 18 * i - 4, lx + 26,
                                         ly + 18 * i - 4, color))
        e.append('<text x="%d" y="%d" font-family="sans-serif" '
                 'font-size="12" fill="#111111">%s</text>'
                 % (lx + 32, ly + 18 * i, _esc(str(label))))
    e.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(e) + "\n")
    return path


def _esc(text):
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


# ---------------------------------------------------------------------------
# digests / manifest

def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sha256_text(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_manifest(path, payload):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
