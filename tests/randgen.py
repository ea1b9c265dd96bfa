"""Random patterns and streams for property tests."""

import numpy as np

from matchshed.model import DataElement
from matchshed.parser import parse_pattern

ATTRS = ("x", "ID")


def random_stream(rng, size, alphabet, ids=3):
    out = []
    for i in range(size):
        out.append(DataElement(
            alphabet[rng.integers(0, len(alphabet))], i, float(i),
            {"x": float(np.round(rng.uniform(0, 10), 3)),
             "ID": float(rng.integers(1, ids + 1))}))
    return out


def random_pattern(rng, alphabet, pattern_id=0, max_steps=4,
                   window=(4, 12), force=None):
    """Build a random pattern text and parse it.

    ``force`` can be "kleene" or "neg" to guarantee that feature.
    """
    n_steps = int(rng.integers(2, max_steps + 1))
    kinds = ["single"] * n_steps
    feature = force or rng.choice(["plain", "kleene", "neg"])
    if feature == "kleene":
        kinds[int(rng.integers(0, n_steps))] = "kleene"
    elif feature == "neg" and n_steps >= 3:
        kinds[int(rng.integers(1, n_steps - 1))] = "neg"

    parts = []
    names = []
    kleene_names = []
    neg_names = []
    for j, kind in enumerate(kinds):
        t = alphabet[rng.integers(0, len(alphabet))]
        nm = f"v{j}"
        if kind == "kleene":
            parts.append(f"{t}+ {nm}[]")
            kleene_names.append(nm)
        elif kind == "neg":
            parts.append(f"!{t} {nm}")
            neg_names.append(nm)
        else:
            parts.append(f"{t} {nm}")
        names.append(nm)

    plain = [nm for nm in names
             if nm not in kleene_names and nm not in neg_names]
    conjs = []
    if rng.random() < 0.4:
        conjs.append("SAME [ID]")
    for _ in range(int(rng.integers(0, 3))):
        kind = rng.random()
        op = rng.choice(["<", "<=", ">", ">=" ])
        if kind < 0.3 and kleene_names:
            other = rng.choice(plain) if plain else None
            rhs = f"{other}.x" if other is not None else f"{rng.uniform(2, 18):.2f}"
            conjs.append(f"SUM({rng.choice(kleene_names)}[].x) {op} {rhs}")
        elif kind < 0.45 and neg_names and plain:
            conjs.append(f"{rng.choice(neg_names)}.x {op} {rng.choice(plain)}.x")
        elif len(plain) >= 2:
            a, b = rng.choice(plain, size=2, replace=False)
            conjs.append(f"{a}.x {op} {b}.x")
        elif plain:
            conjs.append(f"{rng.choice(plain)}.x {op} {rng.uniform(2, 8):.2f}")
    w = int(rng.integers(window[0], window[1] + 1))
    text = f"SEQ({', '.join(parts)})"
    if conjs:
        text += " WHERE " + " AND ".join(conjs)
    text += f" WITHIN {w}"
    return parse_pattern(text, pattern_id=pattern_id)


def acceptance_cases(seed=2024, count=1000):
    """The (pattern, stream) cases of acceptance check 1, in its order:
    plain, Kleene and negation patterns in turn over 4-6 event types,
    every 25th stream 200 elements long."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        force = ("plain", "kleene", "neg")[t % 3]
        alphabet = "ABCDEF"[:4 + t % 3]
        size = 200 if t % 25 == 24 else int(rng.integers(20, 81))
        pat = random_pattern(rng, alphabet, 0, force=force)
        yield pat, random_stream(rng, size, alphabet)
