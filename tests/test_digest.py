"""``tools/digest.py``, which output-preserving changes compare before
and after, prints one stable line per run of each configuration it
names, then the ``csv`` lines and one ``faults`` line per
configuration, where the ``faulting`` configuration's guards fault."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "digest.py"


def load_digest():
    spec = importlib.util.spec_from_file_location("digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_prints_one_repeatable_line_per_run(capsys):
    digest = load_digest()
    assert set(digest.CONFIGS) == {"ds1", "ds1-mixed", "ds2", "mixed",
                                   "strict", "late", "residual",
                                   "faulting"}
    runs = []
    for _ in range(2):
        digest.main(["--ds1", "600", "--ds2", "300", "--seeds", "5"])
        runs.append(capsys.readouterr().out.splitlines())
    assert runs[0] == runs[1]
    expected = [(name, sel, cons, strategy)
                for name, (_, _, _, strategies) in digest.CONFIGS.items()
                for sel, cons in digest.POLICIES
                for strategy in strategies]
    lines = runs[0]
    n = len(expected)
    assert len(lines) == n + 2 + len(digest.CONFIGS) == 74
    assert [(f[0], f[2], f[3], f[4])
            for f in map(str.split, lines[:n])] == expected
    assert all(f[1] == "5" for f in map(str.split, lines[:n]))
    assert [line.split()[:2] for line in lines[n:n + 2]] == \
        [["csv", "ds1"], ["csv", "ds2"]]
    faults = [line.split() for line in lines[n + 2:]]
    assert [f[:2] for f in faults] == [["faults", name]
                                       for name in digest.CONFIGS]
    # the same number of runs without a fault hash alike; faulting's differ
    zero = dict(f[1:] for f in faults)["ds2"]
    assert {f[2] for f in faults if f[1] != "faulting"} == {zero}
    assert dict(f[1:] for f in faults)["faulting"] != zero
