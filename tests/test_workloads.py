import os

import numpy as np
import pytest

from matchshed import workloads as wl
from matchshed.model import StepKind
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
        p = parse_pattern(text, pattern_id=0, name=name)
        assert p.window.size == 500


def test_template_features():
    t = wl.templates()
    p1 = parse_pattern(t["P1"])
    assert p1.steps[1].kind is StepKind.KLEENE_PLUS
    p5 = parse_pattern(t["P5"])
    assert p5.steps[2].kind is StepKind.NEGATED
    # radius parameter lands in the distance predicates
    assert "6371" in t["P3"] and "6371" in t["P4"]
    assert "1000" in wl.templates(r=1000.0)["P4"]


def test_template_type_mapping():
    t = wl.templates(type_map={"A": "bike_trip", "B": "dock"})
    assert "bike_trip" in t["P1"] and "dock" in t["P1"]
    parse_pattern(t["P1"])
