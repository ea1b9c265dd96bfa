import numpy as np
import pytest

import oracle
import randgen
from matchshed.engine import golden_run
from matchshed.model import StepKind
from matchshed.parser import _fmt_expr, parse_pattern
from matchshed.plan import (PlanError, _check_invariants, _positional,
                            compile_pattern, merge)


def P(text, pid=0):
    return parse_pattern(text, pattern_id=pid)


def sig_names(plan):
    return ["".join(t for t, _ in s.signature) for s in plan.states]


def test_linear_chain():
    plan = compile_pattern(P("SEQ(A, B, C) WITHIN 10"))
    assert sig_names(plan) == ["", "A", "AB", "ABC"]
    assert plan.states[3].accepting_for == {0}


def test_kleene_chain_has_self_loop():
    plan = compile_pattern(P("SEQ(A a, B+ b[], C c, D d) "
                             "WHERE SAME [ID] AND SUM(b[].x) < c.x "
                             "WITHIN 1000"))
    assert sig_names(plan) == ["", "A", "AB", "ABC", "ABCD"]
    loops = [e for e in plan.edges if e.from_id == e.to_id]
    assert len(loops) == 1
    assert loops[0].action == "kleene-extend"
    assert loops[0].from_id == 2


def test_negation_holds_no_state():
    plan = compile_pattern(P("SEQ(A a, !C c, D d) WITHIN 10"))
    # the C step appears in signatures but owns no state
    assert len(plan.states) == 3
    guard_edges = [e for e in plan.edges if e.step_kind == "negation-guard"]
    assert len(guard_edges) == 1
    assert guard_edges[0].trigger_type == "D"


def test_merge_shares_prefix():
    plan = merge([P("SEQ(A, B, C) WITHIN 10", 0),
                  P("SEQ(A, B, E) WITHIN 10", 1)], mode="view")
    names = sig_names(plan)
    assert names.count("A") == 1 and names.count("AB") == 1
    assert set(names) == {"", "A", "AB", "ABC", "ABE"}


def test_merge_identity():
    solo = compile_pattern(P("SEQ(A, B) WITHIN 5"))
    again = merge([P("SEQ(A, B) WITHIN 5")], mode="view")
    assert solo.dump() == again.dump()


def test_separate_mode_is_disjoint():
    pats = [P("SEQ(A, B, C) WITHIN 10", 0), P("SEQ(A, B, E) WITHIN 10", 1)]
    plan = merge(pats, mode="separate")
    # one state per bound step per pattern, plus the shared start
    assert len(plan.states) == 3 + 3 + 1


def test_deterministic_numbering():
    pats = ["SEQ(A, B, C) WITHIN 10", "SEQ(A, C, D) WITHIN 10",
            "SEQ(B, C) WITHIN 10"]
    a = merge([P(t, i) for i, t in enumerate(pats)], mode="view").dump()
    b = merge([P(t, i) for i, t in enumerate(pats)], mode="view").dump()
    assert a == b


def test_pattern_ids_must_be_positional():
    with pytest.raises(PlanError):
        merge([P("SEQ(A, B) WITHIN 5", 1)], mode="view")


def test_unknown_mode_rejected():
    with pytest.raises(PlanError):
        merge([P("SEQ(A, B) WITHIN 5")], mode="blended")


def test_multi_negated_bindings_in_one_conjunct_rejected():
    with pytest.raises(PlanError):
        compile_pattern(P("SEQ(A a, !B b, !C c, D d) "
                          "WHERE b.x < c.x WITHIN 10"))


def test_state_on_no_chain_rejected():
    plan = merge([P("SEQ(A, B, C) WITHIN 10", 0),
                  P("SEQ(A, B, E) WITHIN 10", 1)], mode="view")
    _check_invariants(plan, True)
    plan.states[-1].psd = 0
    with pytest.raises(PlanError, match=r"state 4 .* psd = 0"):
        _check_invariants(plan, True)


def test_acyclic_except_kleene():
    rng = np.random.default_rng(7)
    for _ in range(30):
        pats = [randgen.random_pattern(rng, "ABCD", pid)
                for pid in range(int(rng.integers(1, 4)))]
        plan = merge(pats, mode="view")
        for e in plan.edges:
            if e.from_id == e.to_id:
                assert e.action == "kleene-extend"
            else:
                assert (plan.states[e.to_id].depth
                        > plan.states[e.from_id].depth)


def test_language_preservation_merged_vs_solo():
    """Per-pattern CM sets through a merged plan equal solo-plan output."""
    import dataclasses
    rng = np.random.default_rng(11)
    for trial in range(25):
        pats = [randgen.random_pattern(rng, "ABC", pid, max_steps=3)
                for pid in range(2)]
        stream = randgen.random_stream(rng, 40, "ABC")
        merged = golden_run(stream, merge(pats, mode="view"))
        for pid, p in enumerate(pats):
            solo_pat = dataclasses.replace(p, id=0)
            solo = golden_run(stream, compile_pattern(solo_pat))
            assert ({r.seq_tuple() for r in merged[pid]}
                    == {r.seq_tuple() for r in solo[0]})


def _schedule(text):
    """The single-pattern plan of ``text`` in binding names: each
    transition's conjuncts, each ``NegCheck``'s blockers, the residual."""
    pat = P(text)
    names = {i: s.binding_name for i, s in enumerate(pat.positional_steps)}
    # a blocker's gap element, binding None: the one negated step here
    names[None] = next((s.binding_name for s in pat.steps
                        if s.kind is StepKind.NEGATED), None)

    def named(exprs):
        return [_fmt_expr(_positional(e, names)) for e in exprs]

    plan = compile_pattern(pat)
    steps = [e.guards[0] for e in plan.edges if e.action != "kleene-extend"]
    conjs = {j: named(g.checks) for j, g in enumerate(steps) if g.checks}
    blockers = {j: [named(nc.blockers) for nc in g.neg_checks]
                for j, g in enumerate(steps) if g.neg_checks}
    residual = [named(r) for r in plan.residuals.values()]
    return conjs, blockers, residual


@pytest.mark.parametrize("text,conjs,blockers,residual", [
    # a conjunct lands on the transition of its latest binding
    ("SEQ(A a, B b, C c) WHERE a.x < c.x WITHIN 10",
     {2: ["a.x < c.x"]}, {}, []),
    # a SUM over a Kleene step waits for the transition after it ...
    ("SEQ(A a, B+ b[], C c) WHERE SUM(b[].x) < a.x WITHIN 10",
     {2: ["SUM(b[].x) < a.x"]}, {}, []),
    # ... or for the emission, the residual, when the Kleene step is last
    ("SEQ(A a, B+ b[]) WHERE SUM(b[].x) < a.x WITHIN 10",
     {}, {}, [["SUM(b[].x) < a.x"]]),
    # blockers over bindings bound before or at the gap's transition
    ("SEQ(A a, !C c, B b) WHERE c.x < a.x AND c.x < b.x WITHIN 10",
     {}, {1: [["c.x < a.x", "c.x < b.x"]]}, []),
    # a Kleene step open at the gap's transition: the blocker is dropped
    ("SEQ(A a, !C c, B+ b[]) WHERE c.x < SUM(b[].x) WITHIN 10",
     {}, {1: [[]]}, []),
    # a binding bound after the gap: the blocker is dropped
    ("SEQ(A a, !C c, B b, D d) WHERE c.x < d.x WITHIN 10",
     {}, {1: [[]]}, []),
    # a Kleene step closed before the gap: the blocker is kept
    ("SEQ(A+ a[], !C c, B b) WHERE SUM(a[].x) < c.x WITHIN 10",
     {}, {1: [["SUM(a[].x) < c.x"]]}, []),
])
def test_conjunct_schedule(text, conjs, blockers, residual):
    assert _schedule(text) == (conjs, blockers, residual)
