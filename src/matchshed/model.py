"""Core data model: stream elements, pattern steps, patterns, match records."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
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
    size: float  # elements for COUNT, time units for TIME

    def __post_init__(self):
        if self.size <= 0:
            raise ValueError("window size must be positive")


@dataclass
class Pattern:
    """A parsed sequential pattern.

    ``steps`` is the ordered step list, ``predicate`` the expression tree
    (``None`` means always true), ``window`` the match span bound and
    ``latency_bound_ms`` the per-pattern processing latency bound.
    """

    id: int
    steps: tuple
    predicate: object  # expr.Expr or None
    window: Window
    latency_bound_ms: float = 1000.0
    selection: Optional[SelectionPolicy] = None
    consumption: Optional[ConsumptionPolicy] = None
    name: str = ""

    def __post_init__(self):
        if not any(s.kind is not StepKind.NEGATED for s in self.steps):
            raise ValueError("pattern needs at least one non-negated step")
        if self.latency_bound_ms <= 0:
            raise ValueError("latency bound must be positive")

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
    """

    __slots__ = ("pattern_bits", "slots", "state_id", "first_seq", "first_ts",
                 "last_seq", "parent", "alive", "key", "emit_index")

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
        self.key = None  # filled by the cost module on first use
        self.emit_index = -1

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


def pattern_bit(i: int, n: int) -> int:
    """Bit for pattern i among n patterns; most-significant bit is P_0."""
    return 1 << (n - i - 1)


def render_bitmap(b: int, n: int) -> str:
    """Bracketed bit string, most-significant bit first: ``[011]``."""
    return "[" + format(b, f"0{n}b") + "]"
