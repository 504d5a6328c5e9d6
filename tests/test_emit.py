"""CSV/SVG emission: byte determinism, round-trips, quoting."""

import numpy as np

from lcdeco.emit import (_nice_ticks, emit_csv, emit_svg, format_float,
                         read_csv, sha256_file, sha256_text)


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
    import pytest
    with pytest.raises(ValueError):
        emit_svg(str(tmp_path / "bad.svg"), [0.0, 1.0], [[0.0]], ["short"])
    with pytest.raises(ValueError):
        emit_svg(str(tmp_path / "bad.svg"), [0.0, float("nan")],
                 [[0.0, 1.0]], ["nan"])


def test_sha256_text_stable():
    assert sha256_text("abc") == \
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
