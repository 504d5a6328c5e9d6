"""Deterministic file emission: CSV, standalone SVG plots, digests.

Output bytes are a pure function of the data passed in: floats are
printed with 17 significant digits (exact round-trip), newlines are
always "\\n", and nothing here reads clocks or global state.

A table is not formatted value by value: emit_csv picks one format per
column from the kinds of its cells and prints each row with one format
string, and emit_svg maps each trace to pixels with numpy and prints
its points with one format per point, the shared x pixels once per plot.
"""

import csv
import hashlib
import io
import json
import math

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def format_float(x):
    """17-significant-digit decimal; float(format_float(x)) == x."""
    return format(float(x), ".17g")


_FLOAT = "%.17g"


def _spec(kind):
    """The format of a cell of type `kind`: a float (numpy's float64
    too) at 17 significant digits, an int in decimal (a bool as 1 or 0),
    and None for text: anything else, printed as its str."""
    if issubclass(kind, float):
        return _FLOAT
    if issubclass(kind, int):
        return "%d"
    return None


def _cell(value):
    """One cell's text: by _spec, text quoted where it needs to be."""
    spec = _spec(type(value))
    return _quote(str(value)) if spec is None else spec % value


def _quote(text):
    if any(ch in text for ch in (",", '"', "\n", "\r")):
        return '"%s"' % text.replace('"', '""')
    return text


# ---------------------------------------------------------------------------
# CSV

def _row_format(names, columns):
    """(format, columns): the row format string of a table given by
    column, and the columns to fill it with.  A column of one numeric
    spec (_spec) gets that spec and is passed on as it is; a column of
    text gets %s and its cells quoted, and one that mixes kinds gets %s
    and each cell's own text (_cell).  A float cell that is nan or ±inf
    is a ValueError naming its column and row."""
    specs = []
    filled = []
    for name, values in zip(names, columns):
        kinds = {_spec(kind) for kind in set(map(type, values))}
        if _FLOAT in kinds:
            _refuse_non_finite(name, values, len(kinds) == 1)
        if len(kinds) > 1:
            spec, values = "%s", list(map(_cell, values))
        elif None in kinds:
            spec, values = "%s", list(map(_quote, map(str, values)))
        else:
            spec = kinds.pop()
        specs.append(spec)
        filled.append(values)
    return ",".join(specs), filled


def _refuse_non_finite(name, values, all_floats):
    """ValueError naming the column and row of the first float among
    values that is nan or ±inf; all_floats: every cell is a float."""
    floats = values if all_floats else [v for v in values
                                        if isinstance(v, float)]
    if all(map(math.isfinite, floats)):
        return
    row, value = next((i, v) for i, v in enumerate(values)
                      if isinstance(v, float) and not math.isfinite(v))
    raise ValueError("non-finite value %s in column %r, row %d"
                     % (value, str(name), row))


def emit_csv(path, columns, rows, meta=None):
    """Write a CSV with an optional '#'-prefixed metadata comment block.

    rows is a sequence of rows of one cell per column.  Each column's
    cells are printed by their kind (_spec, _cell), through one row
    format for the whole table (_row_format).

    meta: ordered (key, value) pairs rendered as '# key = value' (strings
    verbatim, numbers as data cells).  A file read back with read_csv is
    re-emitted byte for byte by splitting each of its meta lines back
    into a pair at the first ' = '.

    A float cell that is nan or ±inf is refused with a ValueError that
    names its column and row, before the file is opened.
    """
    if set(map(len, rows)) - {len(columns)}:
        i = next(i for i, row in enumerate(rows) if len(row) != len(columns))
        raise ValueError("row %d has %d cells, the header %d"
                         % (i, len(rows[i]), len(columns)))
    out = []
    if meta is not None:
        for key, value in meta:
            out.append("# %s = %s" % (key, _cell(value)
                                      if not isinstance(value, str)
                                      else value))
    out.append(",".join(_quote(str(c)) for c in columns))
    fmt, filled = _row_format(columns, zip(*rows))
    out.extend(map(fmt.__mod__, zip(*filled)))
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

def _nice_ticks(lo, hi):
    """Round-valued ticks covering [lo, hi], about six of them."""
    span = hi - lo
    raw = span / 6
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * mag
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    slack = 1e-9 * span
    first = math.ceil(lo / step - 1e-9) * step
    if not lo - slack <= first <= hi + slack:
        first = lo   # an axis a few ulps wide: the multiple rounds off it
    ticks = []
    v = first
    while v <= hi + slack:
        ticks.append(0.0 if abs(v) < 1e-12 * span else v)
        if v + step == v:   # an axis a few ulps wide: v + step rounds to v
            break
        v += step
    return ticks


def _tick_label(v):
    return "%g" % (round(v, 12),)


def emit_svg(path, x, series, labels, title="", xlabel="", ylabel=""):
    """Standalone 960 × 560 px multi-line plot: one polyline per series,
    shared x.

    Purely geometric output — fixed palette, fixed layout, coordinates
    rounded to 0.01 px — so the same data always yields the same bytes.
    x and every series must be non-empty, finite and of one length, or
    ValueError names what is not.
    """
    if len(series) == 0 or len(series) != len(labels):
        raise ValueError("need one label per series")
    xs = np.asarray(x, dtype=float)
    if not len(xs):
        raise ValueError("x is empty: no point to plot")
    if not np.all(np.isfinite(xs)):
        raise ValueError("non-finite x values")
    ys_all = []
    for s, label in zip(series, labels):
        ys = np.asarray(s, dtype=float)
        if not len(ys):
            raise ValueError("series %r is empty: no point to plot"
                             % (str(label),))
        if len(ys) != len(xs):
            raise ValueError("series length %d != x length %d"
                             % (len(ys), len(xs)))
        if not np.all(np.isfinite(ys)):
            raise ValueError("non-finite series values")
        ys_all.append(ys)
    xlo, xhi = float(xs.min()), float(xs.max())
    ylo = min(float(ys.min()) for ys in ys_all)
    yhi = max(float(ys.max()) for ys in ys_all)
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

    # pixel coordinates of a value or an array of them: numpy applies
    # the same IEEE operations in the same order to each element
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
    # the x pixel column is shared by every series: printed once
    xtext = list(map("%.2f".__mod__, px(xs).tolist()))
    for i, ys in enumerate(ys_all):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(map("%s,%.2f".__mod__, zip(xtext, py(ys).tolist())))
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
