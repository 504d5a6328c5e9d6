"""CSV/SVG emission: byte determinism, round-trips, quoting, and the
goldens of literal inputs."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcdeco.emit import (_nice_ticks, emit_csv, emit_svg, format_float,
                         read_csv, sha256_file, sha256_text)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

# The literal inputs of tests/data/emit_golden.csv and emit_golden.svg,
# which the per-cell emitters wrote (each value converted and formatted
# on its own): floats as hex literals, so the inputs are the same bits on
# every platform.  Each kind of cell the emitters take has a column of
# its own, and "mixed" mixes the kinds in one column.
NEG_ZERO = float.fromhex("-0x0p+0")
TINY = float.fromhex("0x0.0000000000001p-1022")       # 5e-324
HUGE = float.fromhex("0x1.fffffffffffffp+1023")       # 1.7976931348623157e308
TENTH = float.fromhex("0x1.999999999999ap-4")         # 0.1
THIRD = float.fromhex("0x1.5555555555555p-2")         # 1/3
GOLDEN_CSV_META = [("tool", "lcdeco golden"), ("note", 'a, "quoted" = b'),
                   ("int", 7), ("flag", True), ("float", THIRD),
                   ("np_int", np.int64(-3)), ("np_float", np.float64(TENTH))]
GOLDEN_CSV_COLUMNS = ["float", "np_float", "int", "bool", "np_int", "text",
                      "mixed", 'head,"quoted"']
GOLDEN_CSV_ROWS = [
    (NEG_ZERO, np.float64(TINY), 0, True, np.int64(-9), "plain", 1, "x"),
    (TINY, np.float64(-HUGE), -12, False, np.int32(7), "comma,inside",
     THIRD, "y"),
    (HUGE, np.float64(NEG_ZERO), 2 ** 70, True, np.uint8(255),
     'quote"inside', False, "z"),
    (TENTH, np.float64(float("nan")), 1, False, np.int64(0), "line\nbreak",
     np.int64(4), "w"),
    (THIRD, np.float64(float("inf")), -1, True, np.int64(2 ** 62), "",
     np.float64(-TENTH), "v"),
    (float("nan"), np.float64(THIRD), 3, False, np.int16(-1), "tab\there",
     "text, too", "u"),
    (float("inf"), np.float64(TENTH), 4, True, np.int64(5), "-0.0",
     float("-inf"), "t"),
    (float("-inf"), np.float64(1.0), 5, False, np.int64(6), "1e5", True,
     "s"),
]
GOLDEN_SVG_X = [NEG_ZERO, TENTH, THIRD, 0.5, 1.0, 2.0]
GOLDEN_SVG_SERIES = [
    [TENTH, -THIRD, 0.25, TINY, -1.0, 0.75],
    np.array([0.0, 0.5, -0.5, THIRD, 1.0 + TENTH, NEG_ZERO]),
    [np.float64(2.0), 1.5, 1.0, 0.5, 0.0, -0.5],
]
GOLDEN_SVG_LABELS = ["a<b&c", "numpy", 3]
GOLDEN_SVG_TEXT = {"title": "golden <plot> & such", "xlabel": "t [1/omega]",
                   "ylabel": "value"}


def write_goldens(csv_path, svg_path):
    """Write the two goldens' files from their literal inputs."""
    emit_csv(csv_path, GOLDEN_CSV_COLUMNS, GOLDEN_CSV_ROWS,
             meta=GOLDEN_CSV_META)
    emit_svg(svg_path, GOLDEN_SVG_X, GOLDEN_SVG_SERIES, GOLDEN_SVG_LABELS,
             **GOLDEN_SVG_TEXT)


def test_three_point_csv_is_four_lines(tmp_path):
    path = tmp_path / "tiny.csv"
    emit_csv(str(path), ["t", "y"], [(0.0, 1.0), (0.5, 2.0), (1.0, 3.0)])
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0] == "t,y"


def test_csv_read_reemit_byte_identical(tmp_path):
    p1 = tmp_path / "a.csv"
    rows = [(x, np.sin(x)) for x in np.linspace(0.0, 3.0, 17)]
    emit_csv(str(p1), ["x", "sin"], rows,
             meta=[("tool", "lcdeco test"), ("n", 17)])
    meta_lines, columns, body = read_csv(str(p1))
    p2 = tmp_path / "b.csv"
    emit_csv(str(p2), columns, body,
             meta=[tuple(line[2:].split(" = ", 1)) for line in meta_lines])
    assert p1.read_bytes() == p2.read_bytes()


def test_format_float_round_trip():
    rng = np.random.default_rng(41)
    values = list(rng.normal(scale=1e10, size=50)) \
        + list(rng.normal(scale=1e-12, size=50)) \
        + [0.0, 1.0, -1.0, 2.0 ** -1074, 1e308]
    for v in values:
        assert float(format_float(v)) == v


def test_csv_quoting(tmp_path):
    path = tmp_path / "q.csv"
    emit_csv(str(path), ["name", "value"],
             [('comma,inside', 1.0), ('quote"inside', 2.0)])
    _, columns, rows = read_csv(str(path))
    assert columns == ["name", "value"]
    assert rows[0][0] == "comma,inside"
    assert rows[1][0] == 'quote"inside'


def test_csv_meta_block_preserved(tmp_path):
    path = tmp_path / "m.csv"
    emit_csv(str(path), ["a"], [(1.0,)], meta=[("key", "value")])
    meta_lines, _, _ = read_csv(str(path))
    assert meta_lines == ["# key = value"]


def test_svg_determinism(tmp_path):
    x = np.linspace(0.0, 1.0, 64)
    series = [np.sin(6 * x), np.cos(6 * x)]
    p1 = tmp_path / "one.svg"
    p2 = tmp_path / "two.svg"
    emit_svg(str(p1), x, series, ["sin", "cos"], title="t")
    emit_svg(str(p2), x, series, ["sin", "cos"], title="t")
    assert sha256_file(str(p1)) == sha256_file(str(p2))
    text = p1.read_text()
    assert text.count("<polyline") == 2
    assert "sin" in text and "cos" in text
    assert "<svg" in text.splitlines()[0]


def test_nice_ticks_end_on_an_axis_a_few_ulps_wide():
    """An axis a few ulps wide has a tick step below the ulp of its
    values, so adding the step leaves a tick where it is; the ticks must
    still end, and on the axis.  D(t) of a weakly coupled fig2 run spans
    such an axis, 0.9999999999999998 to 1.0."""
    for lo, hi in [(0.9999999999999998, 1.0), (-1.0000000000000002, -1.0),
                   (5.0, 5.000000000000002), (1e300, 1.0000000000000004e300),
                   (1.0, 1.0000000000000002)]:
        ticks = _nice_ticks(lo, hi)
        assert 1 <= len(ticks) <= 12
        slack = 1e-9 * (hi - lo)
        assert all(lo - slack <= t <= hi + slack for t in ticks)
        assert ticks == sorted(ticks)


def test_svg_escapes_markup(tmp_path):
    path = tmp_path / "esc.svg"
    emit_svg(str(path), [0.0, 1.0], [[0.0, 1.0]], ["a<b&c"], title="x<y")
    text = path.read_text()
    assert "a&lt;b&amp;c" in text
    assert "x&lt;y" in text


def test_svg_rejects_bad_input(tmp_path):
    with pytest.raises(ValueError):
        emit_svg(str(tmp_path / "bad.svg"), [0.0, 1.0], [[0.0]], ["short"])
    with pytest.raises(ValueError):
        emit_svg(str(tmp_path / "bad.svg"), [0.0, float("nan")],
                 [[0.0, 1.0]], ["nan"])


def test_sha256_text_stable():
    assert sha256_text("abc") == \
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


def test_emitters_reproduce_the_goldens_of_literal_inputs(tmp_path):
    """Every kind of cell, quoting, the meta block and the SVG's geometry:
    the bytes the per-cell emitters wrote from the same literal inputs."""
    csv_path, svg_path = tmp_path / "g.csv", tmp_path / "g.svg"
    write_goldens(str(csv_path), str(svg_path))
    for name, path in (("emit_golden.csv", csv_path),
                       ("emit_golden.svg", svg_path)):
        with open(os.path.join(DATA_DIR, name), "rb") as fh:
            assert path.read_bytes() == fh.read(), name


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda width: st.lists(
    st.tuples(*[st.floats(allow_nan=True, allow_infinity=True)] * width),
    max_size=40)))
def test_csv_of_float_tables_is_the_per_cell_rule(tmp_path_factory, rows):
    """Each float of a table is written as format(float(v), ".17g"), one
    row per line, whether handed over as Python floats or numpy's."""
    width = len(rows[0]) if rows else 1
    columns = ["c%d" % i for i in range(width)]
    expected = "\n".join([",".join(columns)] + [
        ",".join(format(float(v), ".17g") for v in row) for row in rows])
    path = tmp_path_factory.mktemp("csv") / "f.csv"
    for table in (rows, [tuple(map(np.float64, row)) for row in rows]):
        emit_csv(str(path), columns, table)
        assert path.read_text(encoding="utf-8") == expected + "\n"


def test_csv_rejects_rows_of_another_width(tmp_path):
    with pytest.raises(ValueError, match="row 1 has 1 cells"):
        emit_csv(str(tmp_path / "r.csv"), ["a", "b"], [(1.0, 2.0), (3.0,)])


def test_svg_refuses_an_empty_trace(tmp_path):
    """An empty x or an empty series is refused up front, by name."""
    path = str(tmp_path / "e.svg")
    with pytest.raises(ValueError, match="x is empty"):
        emit_svg(path, [], [[]], ["none"])
    with pytest.raises(ValueError, match="series 'second' is empty"):
        emit_svg(path, [0.0, 1.0], [[0.0, 1.0], []], ["first", "second"])
