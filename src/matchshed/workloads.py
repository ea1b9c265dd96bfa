"""Synthetic stream generators, drift injection, CSV ingestion, and the
shipped pattern template library.

Generation uses numpy's PCG64 generator with SeedSequence-spawned
substreams, one per attribute, so a stream is reproducible bit-for-bit
from its seed on any platform and redrawing one attribute (drift) leaves
the others untouched.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from itertools import islice, repeat
from numbers import Integral, Real
from operator import le

import numpy as np

from .engine import collector_paused
from .model import DataElement, is_number

EARTH_RADIUS_KM = 6371.0


@dataclass
class Drift:
    """From element ``offset`` on, redraw ``attr`` uniformly in
    [low, high); with ``type_tag`` set only elements of that type are
    affected."""
    offset: int
    attr: str
    low: float
    high: float
    type_tag: str = None


@dataclass
class GeneratorSpec:
    alphabet: tuple                  # event types
    attrs: dict                      # name -> (low, high) or ("int", lo, hi)
    count: int
    seed: int
    drifts: list = field(default_factory=list)

    def __post_init__(self):
        if (not isinstance(self.alphabet, (list, tuple)) or not self.alphabet
                or not all(isinstance(t, str) and t for t in self.alphabet)):
            raise ValueError("alphabet must be one or more non-empty strings")
        if not isinstance(self.attrs, dict):
            raise ValueError("attrs must map attribute names to ranges")
        for name, dist in self.attrs.items():
            if not _valid_dist(dist):
                raise ValueError(f"attrs {name!r}: {dist!r} is no finite "
                                 f"range [low, high] or [\"int\", lo, hi]")
        for knob in ("count", "seed"):
            if not (is_number(getattr(self, knob), Integral)
                    and getattr(self, knob) >= 0):
                raise ValueError(f"{knob} must be an integer >= 0")
        for d in self.drifts:
            if not (is_number(d.offset, Integral)
                    and 0 <= d.offset <= self.count):
                raise ValueError(f"drift offset {d.offset!r} outside the "
                                 f"stream of count {self.count}")
            if (not isinstance(d.attr, str) or d.attr not in self.attrs
                    or not _valid_dist((d.low, d.high))):
                raise ValueError(f"drift of {d.attr!r} to [{d.low!r}, "
                                 f"{d.high!r}): no such attribute or range")
            if d.type_tag is not None and d.type_tag not in self.alphabet:
                raise ValueError(f"drift type {d.type_tag!r} not in alphabet")


def _valid_dist(dist) -> bool:
    """``dist`` is ``(low, high)`` numbers or ``("int", lo, hi)`` integers,
    low <= high, in a range numpy draws from: a finite difference, or
    int64 integers."""
    kind = Real
    if isinstance(dist, (list, tuple)) and len(dist) == 3 and dist[0] == "int":
        kind, dist = Integral, dist[1:]
    return (isinstance(dist, (list, tuple)) and len(dist) == 2
            and all(is_number(v, kind) for v in dist)
            and 0 <= dist[1] - dist[0] < math.inf
            and (kind is Real or -2**63 <= dist[0] and dist[1] < 2**63))


def _substreams(spec: GeneratorSpec):
    """One independent PCG64 stream per column, in a fixed column order."""
    names = ["type"] + sorted(spec.attrs)
    children = np.random.SeedSequence(spec.seed).spawn(len(names))
    return {nm: np.random.default_rng(ss) for nm, ss in zip(names, children)}


def _draw(rng, dist, n):
    if dist[0] == "int":
        return rng.integers(dist[1], dist[2] + 1, size=n).astype(float)
    return rng.uniform(dist[0], dist[1], size=n)


def generate(spec: GeneratorSpec) -> list:
    """Materialize the stream; timestamps equal the arrival index."""
    n = spec.count
    rngs = _substreams(spec)
    types = rngs["type"].integers(0, len(spec.alphabet), size=n)
    cols = {nm: _draw(rngs[nm], dist, n)
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
    # column-wise, as load_csv builds its elements: ``tolist`` gives the
    # floats ``float(col[i])`` would
    names = list(cols)
    rows = zip(*[col.tolist() for col in cols.values()]) if names \
        else repeat((), n)
    with collector_paused():
        return list(map(DataElement,
                        map(spec.alphabet.__getitem__, types.tolist()),
                        range(n), map(float, range(n)),
                        map(dict, map(zip, repeat(names), rows))))


def ds1_spec(n: int, seed: int, drifts=None) -> GeneratorSpec:
    return GeneratorSpec(
        alphabet=tuple("ABCDEFGHIJ"),
        attrs={"ID": ("int", 1, 10), "x": (-90.0, 90.0),
               "y": (-180.0, 180.0), "v": (1.0, 3e6)},
        count=n, seed=seed, drifts=list(drifts or ()))


def ds2_spec(n: int, seed: int, drifts=None) -> GeneratorSpec:
    return GeneratorSpec(
        alphabet=tuple("ABCDEF"),
        attrs={"ID": ("int", 1, 25), "x": (1.0, 100.0)},
        count=n, seed=seed, drifts=list(drifts or ()))


def gen_ds1(n: int, seed: int) -> list:
    return generate(ds1_spec(n, seed))


def gen_ds2(n: int, seed: int) -> list:
    return generate(ds2_spec(n, seed))


def inject_drift(spec: GeneratorSpec, drifts) -> GeneratorSpec:
    """Spec with extra drift entries appended (the original is untouched)."""
    return GeneratorSpec(spec.alphabet, dict(spec.attrs), spec.count,
                         spec.seed, list(spec.drifts) + list(drifts))


# ------------------------------------------------------------------- CSV

def write_csv(stream, path: str):
    """Header ``type,ts,<attrs...>``: the first element's attribute names,
    sorted.  Every element must carry exactly those names.  Floats are
    written via repr for lossless round-trips."""
    stream = list(stream)
    names = sorted(stream[0].attrs) if stream else []
    keys = set(names)
    for d in stream:
        if d.attrs.keys() != keys:
            raise ValueError(
                f"{path}: element {d.seq_index} has attributes "
                f"{sorted(d.attrs)}, the header has {names}")
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["type", "ts"] + names)
        for d in stream:
            w.writerow([d.type_tag, repr(d.timestamp)]
                       + [repr(d.attrs[nm]) for nm in names])


class CsvFormatError(ValueError):
    pass


# rows read, converted and checked per pass: enough to amortise a pass,
# few enough that a chunk's lists stay small beside the elements
_CHUNK_ROWS = 4096


def load_csv(path: str):
    """Load ``type,ts,<attrs...>`` rows as one element list.

    Attribute names must be unique and non-empty.  Every value must be a
    finite number, and timestamps must be nondecreasing.  A bad file
    raises ``CsvFormatError`` for its first bad line.

    Rows are read, converted and checked a chunk at a time, column by
    column; only a chunk that fails a check is walked row by row, to find
    the line to report.
    """
    with open(path, newline="") as f, collector_paused():
        rd = csv.reader(f)
        try:
            header = next(rd)
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file") from None
        if header[:2] != ["type", "ts"]:
            raise CsvFormatError(f"{path}: header must start with type,ts")
        names = header[2:]
        for col, nm in enumerate(names, start=3):
            if not nm:
                raise CsvFormatError(
                    f"{path}: header column {col} has no attribute name")
            if nm in names[:col - 3]:
                raise CsvFormatError(
                    f"{path}: header column {col} repeats attribute {nm!r}")
        width = len(header)
        stream = []
        prev_ts = -math.inf
        while True:
            rows = []
            try:
                rows.extend(islice(rd, _CHUNK_ROWS))
            except (csv.Error, UnicodeError):
                # the rows read before the fault come first, as in a row loop
                _check_rows(path, rows, len(stream) + 2, width, prev_ts)
                raise
            if not rows:
                return stream
            cols = _columns(rows, width, prev_ts)
            if cols is None:
                # raises: some row of the chunk fails a check
                _check_rows(path, rows, len(stream) + 2, width, prev_ts)
            types, ts, vals = cols
            n = len(stream)
            rows_vals = zip(*vals) if vals else repeat((), len(ts))
            stream.extend(map(DataElement, types, range(n, n + len(ts)), ts,
                              map(dict, map(zip, repeat(names), rows_vals))))
            prev_ts = ts[-1]


def _columns(rows, width: int, prev_ts: float):
    """A chunk's type column, timestamps and attribute columns as floats,
    or None when some row has the wrong width, a non-numeric or non-finite
    value, or a timestamp below its predecessor's (``prev_ts`` for the
    first)."""
    if set(map(len, rows)) != {width}:
        return None
    types, *text = zip(*rows)
    try:
        ts, *vals = [list(map(float, c)) for c in text]
    except ValueError:
        return None
    isfinite = math.isfinite
    # a finite sum has finite terms; only a large sum is rechecked
    for c in (ts, *vals):
        if not (isfinite(sum(c)) or all(map(isfinite, c))):
            return None
    if ts[0] < prev_ts or not all(map(le, ts, islice(ts, 1, None))):
        return None
    return types, ts, vals


def _check_rows(path: str, rows, first_ln: int, width: int,
                prev_ts: float):
    """Raise ``CsvFormatError`` for the first bad row, if any, ``rows[0]``
    being on line ``first_ln`` and following a timestamp ``prev_ts``.
    Each row is checked for width, then numeric, then finite values, then
    timestamp order."""
    isfinite = math.isfinite
    for ln, row in enumerate(rows, start=first_ln):
        if len(row) != width:
            raise CsvFormatError(f"{path}:{ln}: expected {width} columns")
        try:
            vals = list(map(float, row[1:]))
        except ValueError:
            raise CsvFormatError(f"{path}:{ln}: non-numeric value") from None
        if not all(map(isfinite, vals)):
            raise CsvFormatError(f"{path}:{ln}: NaN or infinite value")
        if vals[0] < prev_ts:
            raise CsvFormatError(f"{path}:{ln}: timestamps not sorted")
        prev_ts = vals[0]


# -------------------------------------------------------------- templates

def templates(window: float = 1000.0) -> dict:
    """Named pattern texts: P1..P6 with predicates, P7..P38 plain
    sequences for scalability runs.  The distance predicates of P3 and P4
    take the earth's radius in km.
    """
    w = f"{window:g}"
    r = EARTH_RADIUS_KM
    t = {
        "P1": "SEQ(A a, B+ b[], C c, D d) "
              f"WHERE SAME [ID] AND SUM(b[].x) < c.x WITHIN {w}",
        "P2": "SEQ(A a, B+ b[], E e, F f) "
              f"WHERE SAME [ID] AND a.x + SUM(b[].x) < e.x + f.x WITHIN {w}",
        "P3": "SEQ(A a, B b, C c, D d, E e, F f, G g) "
              "WHERE SAME [ID] AND a.v < b.v AND b.v + c.v < d.v AND "
              f"2 * {r:g} * arcsin(sqrt(sin((e.x - d.x) / 2) ^ 2 + "
              "cos(d.x) * cos(e.x) * sin((e.y - d.y) / 2) ^ 2)) <= f.v "
              f"WITHIN {w}",
        "P4": "SEQ(A a, B b, C c, D d, H h, I i, J j) "
              "WHERE SAME [ID] AND a.v < b.v AND b.v + c.v < d.v AND "
              f"{r:g} * arccos(sin(d.x) * sin(h.x) + "
              "cos(d.x) * cos(h.x) * cos(h.y - d.y)) <= i.v "
              f"WITHIN {w}",
        "P5": f"SEQ(A a, B b, !C c, D d) WHERE SAME [ID] AND a.x < b.x "
              f"WITHIN {w}",
        "P6": f"SEQ(A a, B b, !C c, E e) WHERE SAME [ID] WITHIN {w}",
    }
    literal = {
        "P7": "A,B,C", "P8": "A,B,E", "P9": "A,!E,C", "P10": "A,!E,D",
        "P11": "A,B+,C", "P12": "A,B+,D", "P13": "A,B,B,C", "P14": "A,C,D",
        "P15": "A,B,C,D", "P16": "A,B+,E", "P17": "A,!B,C", "P18": "A,!C,D",
        "P19": "A,B,D,E", "P20": "A,C,B,D", "P21": "A,!B,D,E",
        "P22": "A,B+,C,D", "P23": "A,G,H,I", "P24": "A,G,H+,J",
        "P25": "A,G,!I,J", "P26": "A,G,I,J,A", "P27": "A,G,J,H,B",
        "P28": "A,G,!H,J,C", "P29": "A,H,H,I", "P30": "A,G,H+,I,J",
        "P31": "A,G,A,B", "P32": "A,G,!J,C", "P33": "A,H,!J,D",
        "P34": "A,G,I,!H,E", "P35": "A,G,H,I,J,F", "P36": "A,J,G,I",
        "P37": "A,G,I+,A", "P38": "A,G,J,B+"
    }
    for name, steps in literal.items():
        t[name] = f"SEQ({steps.replace(',', ', ')}) WITHIN {w}"
    return t
