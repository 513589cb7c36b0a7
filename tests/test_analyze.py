import random
from collections import Counter

import pytest

from lazysat.analyze import LearnedClause, analyze, minimize
from lazysat.formula import Clause, Formula, lit_from_int, lit_to_int
from lazysat.formula import lit_from_int as lit
from lazysat.solver import MODES, Solver, SolverConfig
from lazysat.state import FALSE, TrailState, backtrack
from lazysat.testkit import random_3sat
from support import entails, s2_replay, trail_positions


def lits(*ns):
    return [lit_from_int(n) for n in ns]


def ints(encoded):
    return [lit_to_int(x) for x in encoded]


def resolve(d_lits, c_lits, pivot):
    """Binary resolution (D minus not-pivot) union (C' minus pivot), set semantics.

    ``pivot`` is the literal as it occurs in C'; its negation must occur in
    D.  Order is preserved: D's literals first, then C's new ones.  The
    reference that analysis is replayed through.
    """
    neg = pivot ^ 1
    assert neg in d_lits and pivot in c_lits, "resolution pivot missing"
    out = [x for x in d_lits if x != neg]
    seen = set(out)
    for y in c_lits:
        if y != pivot and y not in seen:
            seen.add(y)
            out.append(y)
    return out


def test_resolve_worked_example():
    # {5, -7, 6} resolved with {7, 5, 3} over 7 gives {5, 3, 6}
    got = resolve(lits(5, -7, 6), lits(7, 5, 3), lit(7))
    assert set(ints(got)) == {5, 3, 6}


def test_resolve_merges_duplicates():
    got = resolve(lits(1, -2), lits(2, 1), lit(2))
    assert ints(got) == [1]


def test_resolve_matches_set_oracle():
    rng = random.Random(13)
    for _ in range(300):
        pivot_var = rng.randint(1, 8)
        d = {rng.choice([-1, 1]) * rng.randint(1, 8) for _ in range(rng.randint(1, 5))}
        c = {rng.choice([-1, 1]) * rng.randint(1, 8) for _ in range(rng.randint(1, 5))}
        d.discard(pivot_var)
        c.discard(-pivot_var)
        d.add(-pivot_var)
        c.add(pivot_var)
        got = resolve(lits(*d), lits(*c), lit(pivot_var))
        want = (d - {-pivot_var}) | (c - {pivot_var})
        assert set(ints(got)) == want


def test_analyze_s2_lazy_chain():
    out = s2_replay()
    rig = out["rig"]
    learned = analyze(rig.state, out["conflict"], 2)
    assert ints(learned.lits) == [2]
    assert learned.level == 1
    assert learned.second_level == 0
    assert [(lit_to_int(p), k) for p, k in learned.steps] == [
        (7, "reason"),
        (-5, "reason"),
        (-3, "lazy"),
        (-6, "reason"),
        (4, "reason"),
    ]


def test_analyze_immediate_stop_returns_source():
    # a conflict with a single top-level literal and no stored MLI comes back
    # unchanged, as the same clause reference
    f = Formula(3)
    c_unit_src = f.add_clause([-1, -2])
    r1 = f.add_clause([2, -3])
    st = TrailState(3, checked=True)
    st.enqueue_decision(lit(1))
    st.enqueue_decision(lit(3))
    st.enqueue_implied(lit(2), r1, 2)
    learned = analyze(st, c_unit_src, 2)
    assert learned.source is c_unit_src
    assert learned.steps == []
    assert ints(learned.lits) == [-1, -2]
    assert learned.asserting == lit(-2)
    assert learned.level == 2 and learned.second_level == 1


def test_analyze_asserts_resolvent_stays_falsified():
    # reason(2) = {2, -1, 3} is corrupt: 3 is unassigned, so resolving the
    # conflict {-2, -1} on 2 adds a literal that is not falsified
    for strategy in (1, 2):
        f = Formula(3)
        bad = f.add_clause([2, -1, 3])
        conflict = f.add_clause([-2, -1])
        st = TrailState(3)
        st.enqueue_decision(lit(1))
        st.enqueue_implied(lit(2), bad, 1)
        st.head = len(st.trail)
        st.checked = True
        with pytest.raises(AssertionError, match="^resolvent must stay falsified$"):
            analyze(st, conflict, strategy)


def test_analyze1_reconflict_loop_matches_analyze2():
    out = s2_replay()
    rig = out["rig"]
    first = analyze(rig.state, out["conflict"], 1)
    assert set(ints(first.lits)) == {3, 6, -4}
    backtrack(rig.state, 1, "lscb", rig.stats)
    assert all(rig.state.val[x] == FALSE for x in first.lits)  # conflicting again
    second = analyze(rig.state, first.lits, 1)
    assert ints(second.lits) == [2]


def test_minimize_self_subsuming_direct():
    # reason(2) = {2, -1} lets -2 drop from {-1, -2, -3}
    f = Formula(3)
    r2 = f.add_clause([2, -1])
    st = TrailState(3, checked=True)
    st.enqueue_decision(lit(1))
    st.enqueue_implied(lit(2), r2, 1)
    st.enqueue_decision(lit(3))
    from lazysat.analyze import LearnedClause

    learned = LearnedClause(
        lits=lits(-3, -1, -2), level=2, second_level=1, asserting=lit(-3)
    )
    smaller = minimize(st, learned)
    assert ints(smaller.lits) == [-3, -1]
    assert smaller.asserting == learned.asserting


def test_minimize_fixpoint_when_nothing_removable():
    f = Formula(3)
    st = TrailState(3)
    st.enqueue_decision(lit(1))
    st.enqueue_decision(lit(2))
    from lazysat.analyze import LearnedClause

    learned = LearnedClause(lits=lits(-2, -1), level=2, second_level=1, asserting=lit(-2))
    assert minimize(st, learned) is learned


def test_minimize_long_implication_chain():
    # x_i or not x_(i+1) chains 3000 implications below the first decision;
    # the two ternary clauses then conflict, and minimizing the learned
    # clause walks the whole chain, once a recursion depth per link.
    n = 3000
    f = Formula(n + 2)
    for i in range(1, n):
        f.add_clause([i, -(i + 1)])
    f.add_clause([n, n + 1, n + 2])
    f.add_clause([n, n + 1, -(n + 2)])
    for mode in ("ncb", "lscb"):
        s = Solver(f.copy(), SolverConfig(mode=mode, minimize=True))
        assert s.solve().sat
        assert s.stats.conflicts == 1
        # nothing is removable (the chain ends in a decision), so the search
        # is the one without minimization
        plain = Solver(f.copy(), SolverConfig(mode=mode))
        plain.solve()
        assert s.stats == plain.stats


def test_minimized_clauses_stay_falsified_and_entailed():
    # run with minimization on and oracle-check every learned clause
    checked = [0]

    def on_learn(solver, pre, post):
        st = solver.state
        for learned in (pre, post):
            assert all(st.val[x] == FALSE for x in learned.lits)
        assert set(post.lits) <= set(pre.lits)
        assert post.asserting == pre.asserting
        checked[0] += 1

    failures = 0
    for seed in range(6):
        f = random_3sat(14, 60, seed)
        cfg = SolverConfig(mode="lscb", cb_threshold=1, minimize=True, check_level="coarse")
        s = Solver(f.copy(), cfg)
        s.on_learn = on_learn
        s.solve()
        # entailment against the original formula, via the refutation oracle
        for clause in s.formula.clauses:
            if clause.learned:
                if not entails(f, clause.to_ints()):
                    failures += 1
    assert checked[0] > 0
    assert failures == 0


def capture_analyses(monkeypatch, check):
    """Route the solver's analysis calls through check(state, conflict, strategy, learned)."""
    import lazysat.solver as solver_mod

    real = solver_mod.run_analysis

    def wrapped(state, conflict, strategy=2):
        learned = real(state, conflict, strategy)
        check(state, conflict, strategy, learned)
        return learned

    monkeypatch.setattr(solver_mod, "run_analysis", wrapped)


def test_pivot_selection_matches_trail_scan(monkeypatch):
    # every pivot must be the last trail literal falsified in the resolvent at
    # its top level: replay the recorded steps through resolve and compare
    # each pivot with a backward trail walk
    checked = [0]

    def check(st, conflict, strategy, learned):
        d_lits = list(conflict.lits if isinstance(conflict, Clause) else conflict)
        for pivot, kind in learned.steps:
            dset = set(d_lits)
            dlev = max(st.level[x >> 1] for x in d_lits)
            expected = None
            for t in reversed(st.trail):
                if (t ^ 1) in dset and st.level[t >> 1] == dlev:
                    expected = t
                    break
            assert pivot == expected
            checked[0] += 1
            reason = st.lazy_cl[pivot >> 1] if kind == "lazy" else st.reason[pivot >> 1]
            d_lits = resolve(d_lits, reason.lits, pivot)
        assert d_lits == learned.lits

    capture_analyses(monkeypatch, check)
    for seed in range(6):
        f = random_3sat(14, 60, seed)
        Solver(f.copy(), SolverConfig(mode="lscb", cb_threshold=1)).solve()
    assert checked[0] > 50


def reference_analyze(state, conflict, strategy=2):
    """First-UIP analysis as repeated binary resolution: a new resolvent per
    step, its pivot the latest trail literal at the resolvent's top level."""
    if isinstance(conflict, Clause):
        d_lits = list(conflict.lits)
        source = conflict
    else:
        d_lits = list(conflict)
        source = None
    level = state.level
    pos = trail_positions(state)
    steps = []
    while True:
        dlev = max(level[x >> 1] for x in d_lits)
        n = 0
        pivot = -1
        pivot_pos = -1
        for x in d_lits:
            v = x >> 1
            if level[v] == dlev:
                n += 1
                if pos[v] > pivot_pos:
                    pivot_pos = pos[v]
                    pivot = x
        trail_lit = pivot ^ 1
        lazy = state.lazy_cl[pivot >> 1] if strategy == 2 else None
        if n == 1 and lazy is None:
            return LearnedClause(
                lits=d_lits,
                level=dlev,
                second_level=state.residual_level(d_lits, pivot),
                asserting=pivot,
                source=source if not steps else None,
                steps=steps,
            )
        if lazy is not None:
            reason = lazy
            kind = "lazy"
        else:
            reason = state.reason[pivot >> 1]
            kind = "reason"
        steps.append((trail_lit, kind))
        d_lits = resolve(d_lits, reason.lits, trail_lit)


def test_analyze_matches_reference_resolution(monkeypatch):
    # the trail walk learns exactly the clause of repeated resolution, on
    # every conflict of every mode, strategy and minimization setting
    seen = Counter()

    def check(st, conflict, strategy, learned):
        want = reference_analyze(st, conflict, strategy)
        assert learned.lits == want.lits
        assert (learned.level, learned.second_level) == (want.level, want.second_level)
        assert learned.asserting == want.asserting
        assert learned.source is want.source
        assert learned.steps == want.steps
        seen["analyses"] += 1
        seen["lazy_steps"] += sum(1 for _, kind in want.steps if kind == "lazy")
        lits = conflict.lits if isinstance(conflict, Clause) else conflict
        if want.level < max(st.level[x >> 1] for x in lits):
            seen["level_drops"] += 1

    capture_analyses(monkeypatch, check)
    for mode in MODES:
        for strategy in (1, 2):
            for minimize in (False, True):
                for seed in range(20):
                    f = random_3sat(40, 170, seed)
                    cfg = SolverConfig(
                        mode=mode, analyze=strategy, minimize=minimize, cb_threshold=1
                    )
                    Solver(f, cfg).solve()
    assert seen["analyses"] > 1000
    assert seen["lazy_steps"] > 0
    assert seen["level_drops"] > 0


def test_analyze_equivalence_on_random_instances():
    # strategy 1 with its re-conflict loop installs the same clauses as
    # strategy 2 while the two runs remain in lockstep
    for seed in range(10):
        f = random_3sat(14, 60, seed)
        result = run_lockstep(f)
        assert result["mismatches"] == []
        assert result["conflicts1"] >= result["conflicts2"]


def run_lockstep(formula):
    """Twin-run both analysis strategies episode by episode; compare installs."""
    from support import LockstepRunner

    return LockstepRunner(formula).run()
