"""Core data model: stream elements, pattern steps, patterns, match records."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cache
from numbers import Real
from typing import Optional


class StepKind(enum.Enum):
    SINGLE = "single"
    KLEENE_PLUS = "kleene_plus"
    NEGATED = "negated"


class WindowKind(enum.Enum):
    COUNT = "count"
    TIME = "time"


class SelectionPolicy(enum.Enum):
    SKIP_TILL_ANY = "skip-any"
    SKIP_TILL_NEXT = "skip-next"
    STRICT_CONTIGUITY = "strict"


class ConsumptionPolicy(enum.Enum):
    REUSE = "reuse"
    CONSUME = "consume"


class DataElement:
    """One stream event or table row.

    ``seq_index`` is the arrival counter (strictly increasing within a
    stream), ``timestamp`` is logical time, ``attrs`` maps attribute name
    to a float value.
    """

    __slots__ = ("type_tag", "seq_index", "timestamp", "attrs")

    def __init__(self, type_tag: str, seq_index: int, timestamp: float,
                 attrs: dict):
        self.type_tag = type_tag
        self.seq_index = seq_index
        self.timestamp = timestamp
        self.attrs = attrs

    def __repr__(self):
        return (f"DataElement({self.type_tag!r}, seq={self.seq_index}, "
                f"ts={self.timestamp}, {self.attrs})")


@dataclass(frozen=True)
class PatternStep:
    event_type: str
    binding_name: str
    kind: StepKind = StepKind.SINGLE


@dataclass(frozen=True)
class Window:
    kind: WindowKind
    size: float  # elements for COUNT, time units (ms) for TIME; the
                 # parser admits a positive, finite size only


@dataclass
class Pattern:
    """A parsed sequential pattern.

    ``steps`` is the ordered step list, ``predicate`` the expression tree
    (``None`` means always true) and ``window`` the match span bound.  Its
    latency bound is a run setting (``RunConfig.bounds``).
    """

    id: int
    steps: tuple
    predicate: object  # expr.Expr or None
    window: Window
    selection: Optional[SelectionPolicy] = None
    consumption: Optional[ConsumptionPolicy] = None

    def __post_init__(self):
        if not any(s.kind is not StepKind.NEGATED for s in self.steps):
            raise ValueError("pattern needs at least one non-negated step")

    @property
    def positional_steps(self) -> tuple:
        """Steps that bind elements (negated steps hold no state)."""
        return tuple(s for s in self.steps if s.kind is not StepKind.NEGATED)

    @property
    def signature(self) -> tuple:
        """Step-prefix signature used for state sharing: (type, kind) pairs."""
        return tuple((s.event_type, s.kind) for s in self.steps)


class MatchRecord:
    """A partial (or complete) match.

    ``slots`` holds one entry per bound positional step: a DataElement for
    single steps, a tuple of DataElements for Kleene steps.  ``pattern_bits``
    is the n-bit membership of patterns this record can still serve.
    ``entry`` is the record's ``cost.SketchEntry``, its only link to its
    cost counters: set by ``cost.sketch_update`` once the record is
    credited, and valid only while the sketch never deletes or replaces
    an entry, so an eviction of entries must clear it.  ``bucket_key`` is
    the key of the state bucket that holds the record, set where it is
    buffered; ``alive`` turns false as the record leaves its state.
    """

    __slots__ = ("pattern_bits", "slots", "state_id", "first_seq", "first_ts",
                 "last_seq", "parent", "alive", "entry", "bucket_key")

    def __init__(self, pattern_bits: int, slots: tuple, state_id: int,
                 first_seq: int, first_ts: float, last_seq: int,
                 parent: Optional["MatchRecord"] = None):
        self.pattern_bits = pattern_bits
        self.slots = slots
        self.state_id = state_id
        self.first_seq = first_seq
        self.first_ts = first_ts
        self.last_seq = last_seq
        self.parent = parent
        self.alive = True
        self.entry = None  # filled by cost.sketch_update

    def elements(self) -> list:
        """All bound elements in sequence order (Kleene lists flattened)."""
        out = []
        for s in self.slots:
            if isinstance(s, tuple):
                out.extend(s)
            else:
                out.append(s)
        return out

    def seq_tuple(self) -> tuple:
        return tuple(e.seq_index for e in self.elements())

    def __repr__(self):
        return (f"MatchRecord(state={self.state_id}, "
                f"bits={self.pattern_bits:b}, seqs={self.seq_tuple()})")


def is_number(v, kind=Real) -> bool:
    """``v`` is a number of ``kind`` and no bool: JSON's ``true`` is none."""
    return isinstance(v, kind) and not isinstance(v, bool)


def pattern_bit(i: int, n: int) -> int:
    """Bit for pattern i among n patterns; most-significant bit is P_0."""
    return 1 << (n - i - 1)


@cache
def patterns_in(bits: int, n: int) -> tuple:
    """The patterns whose bits are set in ``bits`` among n, ascending."""
    return tuple(i for i in range(n) if bits & pattern_bit(i, n))


def render_bitmap(b: int, n: int) -> str:
    """Bracketed bit string, most-significant bit first: ``[011]``."""
    return "[" + format(b, f"0{n}b") + "]"
