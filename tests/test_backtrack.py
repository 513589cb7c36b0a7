import random

import pytest

import lazysat.solver as solver_module
from lazysat.formula import Formula
from lazysat.formula import lit_from_int as lit
from lazysat.solver import Solver, SolverConfig, Stats
from lazysat.state import INF, UNDEF, TrailState, backtrack
from lazysat.testkit import random_3sat, satlib_clause_count
from support import s1_replay, violations


def test_wcb_keeps_low_literals_without_repair():
    out = s1_replay("wcb")
    snap = out["snap_after_backtrack1"]
    assert snap["trail"] == [1, -3, 5]
    assert snap["levels"] == [1, 1, 1]
    assert out["rig"].stats.reimplications == 0
    # the implication of 2 stays missed: propagation finishes cleanly
    assert out["third_conflict"] is None


def test_rscb_rewinds_head_and_requeues():
    out = s1_replay("rscb")
    snap = out["snap_after_backtrack1"]
    assert snap["trail"] == [1, -3, 5]
    assert snap["head"] == 1  # -3 and 5 queued again for repropagation
    assert out["rig"].stats.reimplications == 0
    # repropagation recovers the implication of 2 and finds a level-1 conflict
    assert out["snap_third_conflict"]["trail"][3] == 2
    assert out["third_conflict"] is not None


def test_lscb_reimplies_stored_mli():
    out = s1_replay("lscb")
    snap = out["snap_after_backtrack1"]
    assert snap["trail"] == [1, -3, 5, 2]
    assert snap["levels"] == [1, 1, 1, 1]
    assert snap["reasons"][3] == 3  # reimplied with the stored MLI as reason
    assert snap["head"] == 2
    assert out["rig"].stats.reimplications == 1


def test_backtrack_clears_removed_bookkeeping():
    out = s1_replay("lscb")
    st = out["rig"].state
    rig = out["rig"]
    backtrack(st, 0, "lscb", rig.stats)
    for v in range(1, 7):
        if st.val[v << 1] == UNDEF and st.val[(v << 1) | 1] == UNDEF:
            assert st.reason[v] is None
            assert st.lazy_cl[v] is None
            assert st.level[v] == INF


def test_backtrack_contract_requires_lower_level():
    out = s1_replay("lscb")
    rig = out["rig"]
    with pytest.raises(AssertionError):
        backtrack(rig.state, len(rig.state.decisions), rig.mode, rig.stats)


def test_checked_backtrack_refuses_a_non_unit_stored_mli():
    # a corrupted cache claims the MLI (3 or -2) survives a backtrack to
    # level 1, which unassigns -2 too: checked reimplication refuses it
    f = Formula(3)
    mli = f.add_clause([3, -2])
    st = TrailState(3, checked=True)
    for n in (1, 2, 3):
        st.enqueue_decision(lit(n))
    st.set_lazy(lit(3), mli, 2)
    st.lazy_lvl[3] = 1
    with pytest.raises(AssertionError):
        backtrack(st, 1, "lscb", Stats())


def _run_with_backtrack_spy(mode, seed, spy, n=16):
    orig = solver_module.run_backtrack

    def wrapper(state, d, mode_arg, stats=None):
        spy(state, d, mode_arg, stats, orig)

    solver_module.run_backtrack = wrapper
    try:
        f = random_3sat(n, satlib_clause_count(n), seed)
        cfg = SolverConfig(mode=mode, analyze=2, cb_threshold=1, check_level="coarse")
        s = Solver(f.copy(), cfg)
        s.solve()
        return s
    finally:
        solver_module.run_backtrack = orig


def test_backtrack_keeps_trail_before_first_removed_decision():
    # backtrack finds its start by the level-(d + 1) decision's value: every
    # literal before that decision stays where it is and the kept ones after it
    # close up behind them, also in the out-of-order trails that chronological
    # compactions leave behind
    failures = []
    after_compaction = dict.fromkeys(("ncb", "wcb", "rscb", "lscb"), 0)
    compacted = False  # an earlier backtrack of this solve moved a kept literal

    def spy(state, d, mode, stats, orig):
        nonlocal compacted
        level = state.level
        before = list(state.trail)
        k = next(p for p, x in enumerate(before) if level[x >> 1] > d)
        assert before[k] == state.decisions[d]
        kept = [x for x in before[k:] if level[x >> 1] <= d]
        reimplications = stats.reimplications
        orig(state, d, mode, stats)
        added = stats.reimplications - reimplications
        after = state.trail
        if after[: k + len(kept)] != before[:k] + kept or len(after) != k + len(kept) + added:
            failures.append((mode, d, before, list(after)))
        after_compaction[mode] += compacted
        compacted = compacted or bool(kept)

    for mode in after_compaction:
        for seed in range(12):
            compacted = False
            _run_with_backtrack_spy(mode, seed, spy)
    assert failures == []
    assert all(after_compaction[mode] > 0 for mode in ("wcb", "rscb", "lscb")), after_compaction


def test_invariants_2_and_3_hold_after_backtracks():
    for mode in ("ncb", "wcb", "rscb", "lscb"):
        for seed in range(8):
            f = random_3sat(16, satlib_clause_count(16), seed)
            cfg = SolverConfig(mode=mode, analyze=2, cb_threshold=1, check_level="coarse")
            s = Solver(f.copy(), cfg)
            s.solve()
            assert s.violations.get(2, 0) == 0
            assert s.violations.get(3, 0) == 0


def test_ncb_trail_levels_non_decreasing():
    seen = []

    def spy(state, d, mode, stats, orig):
        orig(state, d, mode, stats)
        seen.append([state.level[x >> 1] for x in state.trail])

    _run_with_backtrack_spy("ncb", 3, spy)
    assert seen
    for levels in seen:
        assert levels == sorted(levels)


def test_reimplied_literals_mutually_independent():
    bad = []

    def spy(state, d, mode, stats, orig):
        before_reimpl = stats.reimplications
        orig(state, d, mode, stats)
        delta = stats.reimplications - before_reimpl
        if not delta:
            return
        batch = state.trail[-delta:]
        for a in batch:
            reason = state.reason[a >> 1]
            for b in batch:
                if a != b and (b ^ 1) in reason.lits:
                    bad.append((a, b))

    for seed in range(12):
        _run_with_backtrack_spy("lscb", seed, spy)
    assert bad == []


def test_backtrack_preserves_relative_order_of_kept():
    rng = random.Random(7)
    failures = []

    def spy(state, d, mode, stats, orig):
        before = list(state.trail)
        orig(state, d, mode, stats)
        new_set = set(state.trail)
        kept_in_old_order = [x for x in before if x in new_set]
        kept_prefix = [x for x in state.trail if x in set(before)]
        if kept_in_old_order != kept_prefix:
            failures.append((before, list(state.trail)))

    for mode in ("ncb", "wcb", "rscb", "lscb"):
        _run_with_backtrack_spy(mode, rng.randint(0, 100), spy)
    assert failures == []


def test_lazy_entries_of_kept_literals_survive():
    # stored MLIs on kept literals stay valid across a backtrack
    out = s1_replay("lscb")
    rig = out["rig"]
    st = rig.state
    # plant a fresh scenario: the MLI on 2 was consumed; rebuild one on 5
    assert violations(st, rig.formula, 6) == []
