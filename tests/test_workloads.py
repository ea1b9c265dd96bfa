import csv
import gc
import math
import os
import struct

import numpy as np
import pytest

from matchshed import workloads as wl
from matchshed.model import DataElement, StepKind
from matchshed.parser import parse_pattern


def test_ds1_bounds():
    s = wl.gen_ds1(2000, seed=1)
    assert len(s) == 2000
    for d in s:
        assert d.type_tag in "ABCDEFGHIJ"
        assert 1 <= d.attrs["ID"] <= 10 and d.attrs["ID"].is_integer()
        assert -90 <= d.attrs["x"] <= 90
        assert -180 <= d.attrs["y"] <= 180
        assert 1 <= d.attrs["v"] <= 3e6


def test_ds2_bounds():
    s = wl.gen_ds2(500, seed=2)
    for d in s:
        assert d.type_tag in "ABCDEF"
        assert 1 <= d.attrs["ID"] <= 25
        assert 1 <= d.attrs["x"] <= 100


def test_empty_stream():
    assert wl.gen_ds1(0, seed=1) == []


def test_determinism_byte_for_byte(tmp_path):
    a = os.path.join(tmp_path, "a.csv")
    b = os.path.join(tmp_path, "b.csv")
    wl.write_csv(wl.gen_ds1(500, seed=9), a)
    wl.write_csv(wl.gen_ds1(500, seed=9), b)
    assert open(a, "rb").read() == open(b, "rb").read()
    wl.write_csv(wl.gen_ds1(500, seed=10), b)
    assert open(a, "rb").read() != open(b, "rb").read()


def test_distribution_sanity():
    s = wl.gen_ds2(20000, seed=3)
    xs = np.array([d.attrs["x"] for d in s])
    lo, hi = 1.0, 100.0
    sigma = (hi - lo) / np.sqrt(12 * len(xs))
    assert abs(xs.mean() - (lo + hi) / 2) < 3 * sigma


def test_drift_identity_and_prefix():
    spec = wl.ds1_spec(1000, seed=4)
    base = wl.generate(spec)
    same = wl.generate(wl.inject_drift(spec, []))
    assert all(a.attrs == b.attrs for a, b in zip(base, same))
    drifted = wl.generate(wl.inject_drift(
        spec, [wl.Drift(600, "v", 1.0, 10.0)]))
    for a, b in zip(base[:600], drifted[:600]):
        assert a.attrs == b.attrs
    tail = [d.attrs["v"] for d in drifted[600:]]
    assert max(tail) <= 10.0
    assert any(a.attrs["v"] != b.attrs["v"]
               for a, b in zip(base[600:], drifted[600:]))


def test_type_scoped_drift():
    spec = wl.ds1_spec(1000, seed=5)
    drifted = wl.generate(wl.inject_drift(
        spec, [wl.Drift(0, "v", 1e6, 3.5e6, type_tag="D")]))
    for d in drifted:
        if d.type_tag == "D":
            assert 1e6 <= d.attrs["v"] <= 3.5e6
    base = wl.generate(spec)
    assert all(a.attrs["v"] == b.attrs["v"]
               for a, b in zip(base, drifted) if a.type_tag != "D")


def test_drift_offset_validated():
    with pytest.raises(ValueError):
        wl.ds1_spec(100, seed=1, drifts=[wl.Drift(200, "v", 0, 1)])


def test_csv_round_trip(tmp_path):
    path = os.path.join(tmp_path, "s.csv")
    s = wl.gen_ds2(50, seed=6)
    wl.write_csv(s, path)
    back = wl.load_csv(path)
    assert len(back) == 50
    for a, b in zip(s, back):
        assert a.type_tag == b.type_tag
        assert a.attrs == b.attrs
        assert a.seq_index == b.seq_index


def test_csv_errors(tmp_path):
    p = os.path.join(tmp_path, "bad.csv")
    with open(p, "w") as f:
        f.write("foo,ts,x\nA,1,2\n")
    with pytest.raises(wl.CsvFormatError):
        wl.load_csv(p)
    with open(p, "w") as f:
        f.write("type,ts,x\nA,1,banana\n")
    with pytest.raises(wl.CsvFormatError):
        wl.load_csv(p)
    with open(p, "w") as f:
        f.write("type,ts,x\nA,5,1\nB,4,1\n")
    with pytest.raises(wl.CsvFormatError):
        wl.load_csv(p)


@pytest.mark.parametrize("row", ["A,nan,1", "A,2,NaN", "A,2,inf",
                                 "A,2,-Infinity"])
def test_csv_rejects_non_finite(tmp_path, row):
    p = os.path.join(tmp_path, "bad.csv")
    with open(p, "w") as f:
        f.write(f"type,ts,ID\nA,1,1\n{row}\n")
    with pytest.raises(wl.CsvFormatError, match=r"bad\.csv:3: NaN or infinite"):
        wl.load_csv(p)


def test_csv_accepts_finite_values_whose_sum_overflows(tmp_path):
    p = os.path.join(tmp_path, "big.csv")
    with open(p, "w") as f:
        f.write("type,ts,x,y\nA,1,1e308,1e308\n")
    (d,) = wl.load_csv(p)
    assert d.attrs == {"x": 1e308, "y": 1e308}


def test_templates_all_parse():
    t = wl.templates(window=500)
    assert len(t) == 38
    for name, text in t.items():
        p = parse_pattern(text, pattern_id=0)
        assert p.window.size == 500


def test_template_features():
    t = wl.templates()
    p1 = parse_pattern(t["P1"])
    assert p1.steps[1].kind is StepKind.KLEENE_PLUS
    p5 = parse_pattern(t["P5"])
    assert p5.steps[2].kind is StepKind.NEGATED
    # the earth's radius lands in the distance predicates
    assert "6371" in t["P3"] and "6371" in t["P4"]


def row_loop_load(path):
    """The per-row loader that chunked ingest replaced, kept as the
    reference for its output and its errors."""
    with open(path, newline="") as f:
        rd = csv.reader(f)
        try:
            header = next(rd)
        except StopIteration:
            raise wl.CsvFormatError(f"{path}: empty file") from None
        if header[:2] != ["type", "ts"]:
            raise wl.CsvFormatError(f"{path}: header must start with type,ts")
        names = header[2:]
        stream = []
        width = len(header)
        prev_ts = -math.inf
        for ln, row in enumerate(rd, start=2):
            if len(row) != width:
                raise wl.CsvFormatError(f"{path}:{ln}: expected "
                                        f"{width} columns")
            try:
                ts = float(row[1])
                attrs = dict(zip(names, map(float, row[2:])))
            except ValueError:
                raise wl.CsvFormatError(
                    f"{path}:{ln}: non-numeric value") from None
            if not all(map(math.isfinite, (ts, *attrs.values()))):
                raise wl.CsvFormatError(
                    f"{path}:{ln}: NaN or infinite value")
            if ts < prev_ts:
                raise wl.CsvFormatError(
                    f"{path}:{ln}: timestamps not sorted")
            prev_ts = ts
            stream.append(DataElement(row[0], ln - 2, ts, attrs))
    return stream


def element_bits(stream):
    """Type, seq, attribute names and the bits of every float."""
    return [(d.type_tag, d.seq_index, tuple(d.attrs),
             struct.pack(f"<{1 + len(d.attrs)}d", d.timestamp,
                         *d.attrs.values()),
             type(d.timestamp), *map(type, d.attrs.values()))
            for d in stream]


def outcome(load, path):
    try:
        return element_bits(load(path))
    except (wl.CsvFormatError, csv.Error) as e:
        return type(e), str(e)


CHUNK = wl._CHUNK_ROWS


@pytest.mark.parametrize("gen", [wl.gen_ds1, wl.gen_ds2])
def test_bulk_load_matches_row_loop(tmp_path, gen):
    s = gen(2 * CHUNK + 123, seed=7)
    s[5].type_tag = 'A,"quoted"'          # csv.writer quotes it
    s[CHUNK].type_tag = "B, C"
    p = os.path.join(tmp_path, "s.csv")
    wl.write_csv(s, p)
    back = wl.load_csv(p)
    assert element_bits(back) == element_bits(row_loop_load(p))
    assert back[5].type_tag == 'A,"quoted"' and back[CHUNK].type_tag == "B, C"
    assert element_bits(back) == element_bits(s)


def _write_rows(path, rows, header="type,ts,ID,x"):
    with open(path, "w") as f:
        f.write("\n".join([header] + rows) + "\n")


def _good_rows(n):
    return [f"A,{i},{i % 7},{i * 0.5}" for i in range(n)]


# (row index, replacement) faults, and the line the row loop reports (None
# for a valid file): the first bad line wins whichever chunk holds it
FAULTS = [
    ([(10, "A,10,nan,1"), (2 * CHUNK + 5, "A,1,2")], 12),
    ([(10, "A,10,1"), (2 * CHUNK + 5, "A,1,nan,2")], 12),
    ([(CHUNK + 3, "A,x,1,1"), (CHUNK + 9, "A,1,1")], CHUNK + 5),
    ([(CHUNK, f"A,{CHUNK - 2},1,1")], CHUNK + 2),   # drops at a boundary
    ([(CHUNK, f"A,{CHUNK - 1},1,1")], None),        # equal is sorted
    ([(7, "A,-inf,1,1")], 9),                       # finite before sorted
    ([(7, "A,3,banana,inf,4")], 9),                 # width before numeric
    ([(2 * CHUNK - 1, "A,0,1,1")], 2 * CHUNK + 1),  # last row of a chunk
    # finite values whose row and column sums overflow
    ([(7, "A,7,1e308,1e308"), (8, "A,8,1e308,1e308")], None),
]


@pytest.mark.parametrize("faults,line", FAULTS)
def test_bulk_errors_match_row_loop(tmp_path, faults, line):
    rows = _good_rows(2 * CHUNK + 50)
    for i, row in faults:
        rows[i] = row
    p = os.path.join(tmp_path, "f.csv")
    _write_rows(p, rows)
    expected = outcome(row_loop_load, p)
    assert outcome(wl.load_csv, p) == expected
    if line is not None:
        assert expected[1].startswith(f"{p}:{line}: ")


def test_reader_fault_after_a_bad_row(tmp_path):
    """A row the reader cannot parse (a field over csv's size limit) comes
    after a bad row in the same chunk: the bad row is reported."""
    rows = _good_rows(50)
    rows[40] = "A,40,1," + "9" * (csv.field_size_limit() + 1)
    p = os.path.join(tmp_path, "f.csv")
    _write_rows(p, rows)
    with pytest.raises(csv.Error):
        wl.load_csv(p)
    rows[3] = "A,3,nan,1"
    _write_rows(p, rows)
    assert outcome(wl.load_csv, p) == outcome(row_loop_load, p)
    with pytest.raises(wl.CsvFormatError, match=r"f\.csv:5: NaN"):
        wl.load_csv(p)


def test_header_only_and_no_attributes(tmp_path):
    p = os.path.join(tmp_path, "h.csv")
    _write_rows(p, [])
    assert wl.load_csv(p) == []
    _write_rows(p, ["A,1", "B,2"], header="type,ts")
    assert element_bits(wl.load_csv(p)) == element_bits(row_loop_load(p))


ODD_NAMES = ["class", "a b", "x'y", "é", "__import__('os')"]


@pytest.mark.parametrize("names", [ODD_NAMES, [f"c{i}" for i in range(300)]],
                         ids=["odd-names", "300-columns"])
def test_header_names_are_never_code(tmp_path, names):
    """Each row's attributes come from one dict display generated per
    header; a keyword, a space, a quote, a non-ASCII letter or a call in
    a name is only a key, and 300 columns make one display too: the
    elements equal those ``dict(zip(names, row))`` builds."""
    p = os.path.join(tmp_path, "n.csv")
    with open(p, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["type", "ts"] + names)
        w.writerows([["A", i] + [i * 0.5 + j for j in range(len(names))]
                     for i in range(30)])
    got = wl.load_csv(p)
    assert [list(d.attrs) for d in got] == [names] * 30
    assert element_bits(got) == element_bits(row_loop_load(p))


def test_spec_attribute_names_are_strings():
    """A generator spec names its attributes by strings, as a CSV header
    does: the generated display splices each name as a string literal."""
    with pytest.raises(ValueError, match="attrs must map attribute names"):
        wl.GeneratorSpec(alphabet=("A",), attrs={1: (0.0, 1.0)}, count=5,
                         seed=0)


@pytest.mark.parametrize("header,msg", [
    ("type,ts,ID,ID", r"column 4 repeats attribute 'ID'"),
    ("type,ts,,x", r"column 3 has no attribute name"),
    ("type,ts,x,y,x", r"column 5 repeats attribute 'x'"),
])
def test_header_names_unique_and_non_empty(tmp_path, header, msg):
    p = os.path.join(tmp_path, "h.csv")
    _write_rows(p, [], header=header)
    with pytest.raises(wl.CsvFormatError, match=msg):
        wl.load_csv(p)


@pytest.mark.parametrize("was_on", [True, False])
def test_load_restores_collector_state(tmp_path, was_on):
    good = os.path.join(tmp_path, "g.csv")
    bad = os.path.join(tmp_path, "b.csv")
    _write_rows(good, _good_rows(100))
    _write_rows(bad, _good_rows(100) + ["A,0,1,1"])
    (gc.enable if was_on else gc.disable)()
    try:
        assert len(wl.load_csv(good)) == 100
        assert gc.isenabled() is was_on
        with pytest.raises(wl.CsvFormatError):
            wl.load_csv(bad)
        assert gc.isenabled() is was_on
    finally:
        gc.enable()


@pytest.mark.parametrize("attrs", [{"ID": 1.0}, {"ID": 1.0, "x": 2.0,
                                                 "y": 3.0}])
def test_write_csv_rejects_other_attribute_names(tmp_path, attrs):
    s = wl.gen_ds2(3, seed=1)
    s[2] = DataElement("A", 2, 2.0, attrs)
    p = os.path.join(tmp_path, "w.csv")
    with pytest.raises(ValueError, match=r"element 2 has attributes"):
        wl.write_csv(s, p)
    assert not os.path.exists(p)


def row_loop_generate(spec):
    """The per-row generator that the column-wise build replaced, kept as
    the reference for its output."""
    n = spec.count
    rngs = wl._substreams(spec)
    types = rngs["type"].integers(0, len(spec.alphabet), size=n)
    cols = {nm: wl._draw(rngs[nm], dist, n)
            for nm, dist in sorted(spec.attrs.items())}
    for d in spec.drifts:
        redraw = np.random.default_rng(
            np.random.SeedSequence([spec.seed, d.offset,
                                    *map(ord, d.attr)])).uniform(
            d.low, d.high, size=n - d.offset)
        if d.type_tag is None:
            cols[d.attr][d.offset:] = redraw
        else:
            t = spec.alphabet.index(d.type_tag)
            mask = types[d.offset:] == t
            cols[d.attr][d.offset:][mask] = redraw[mask]
    return [DataElement(spec.alphabet[types[i]], i, float(i),
                        {nm: float(col[i]) for nm, col in cols.items()})
            for i in range(n)]


@pytest.mark.parametrize("spec", [
    wl.ds1_spec(3000, seed=4, drifts=[
        wl.Drift(1200, "v", 1.0, 10.0),
        wl.Drift(700, "ID", 2.0, 5.0, type_tag="D")]),
    wl.ds2_spec(2000, seed=8, drifts=[wl.Drift(0, "x", -1.0, 1.0,
                                               type_tag="B")]),
    wl.ds2_spec(0, seed=1),
    wl.GeneratorSpec(alphabet=("A", "B"), attrs={}, count=50, seed=2),
    wl.GeneratorSpec(alphabet=("A",), count=50, seed=3,
                     attrs={nm: (0.0, 1.0) for nm in ODD_NAMES})],
    ids=["ds1-drifts", "ds2-typed-drift", "empty", "no-attributes",
         "odd-names"])
def test_generate_matches_row_loop(spec):
    """The column-wise build gives the row loop's elements bit for bit,
    drifted columns, seq and type of every value included."""
    got = wl.generate(spec)
    want = row_loop_generate(spec)
    assert len(got) == spec.count
    assert element_bits(got) == element_bits(want)
    assert [type(d.seq_index) for d in got] == [int] * spec.count


@pytest.mark.parametrize("was_on", [True, False])
def test_generate_restores_collector_state(was_on):
    (gc.enable if was_on else gc.disable)()
    try:
        assert len(wl.gen_ds2(100, seed=1)) == 100
        assert gc.isenabled() is was_on
    finally:
        gc.enable()
