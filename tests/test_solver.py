import gc
import itertools

import pytest

import lazysat.solver as solver_mod
from lazysat.analyze import LearnedClause
from lazysat.backtrack import backtrack
from lazysat.formula import Formula, lit_to_int
from lazysat.formula import lit_from_int as lit
from lazysat.solver import Solver, SolverConfig, choose_backtrack_level
from lazysat.solver import SolverConfig as cfg
from lazysat.state import UNDEF
from lazysat.testkit import brute_force, random_3sat, satlib_clause_count
from support import s1_formula, violations


def test_empty_formula_is_sat():
    verdict = Solver(Formula(0)).solve()
    assert verdict.sat and verdict.model == {}


def test_contradictory_units_unsat():
    f = Formula(1)
    f.add_clause([1])
    f.add_clause([-1])
    verdict = Solver(f).solve()
    assert not verdict.sat


def test_trivially_unsat_short_circuits():
    f = Formula(1)
    f.add_clause([])
    s = Solver(f)
    verdict = s.solve()
    assert not verdict.sat and s.stats.propagations == 0


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(mode="escb")
    with pytest.raises(ValueError):
        SolverConfig(analyze=3)
    with pytest.raises(ValueError):
        SolverConfig(cb_threshold=0)
    with pytest.raises(ValueError):
        SolverConfig(check_level="everything")


def _learned(level, second):
    return LearnedClause(lits=[], level=level, second_level=second, asserting=0)


def test_choose_backtrack_level_ncb_backjumps():
    assert choose_backtrack_level(_learned(2, 1), cfg(mode="ncb")) == 1


def test_choose_backtrack_level_chronological_over_threshold():
    got = choose_backtrack_level(_learned(500, 1), cfg(mode="lscb", cb_threshold=100))
    assert got == 499


def test_choose_backtrack_level_backjump_under_threshold():
    got = choose_backtrack_level(_learned(5, 3), cfg(mode="lscb", cb_threshold=100))
    assert got == 3


def test_choose_backtrack_level_threshold_one_is_pure_chronological():
    got = choose_backtrack_level(_learned(3, 1), cfg(mode="lscb", cb_threshold=1))
    assert got == 2
    got = choose_backtrack_level(_learned(2, 1), cfg(mode="lscb", cb_threshold=1))
    assert got == 1


def test_decide_fresh_solver_lowest_index_negative():
    f = Formula(4)
    f.add_clause([1, 2])
    s = Solver(f)
    assert lit_to_int(s.decide()) == -1


def test_decide_prefers_bumped_variables():
    f = Formula(4)
    f.add_clause([1, 2])
    s = Solver(f)
    # the solver's order: a learned clause's literals are assigned when it
    # bumps them, and the backtrack that follows requeues them
    s.state.enqueue_decision(lit(-3))
    s._bump_clause([lit(3)])
    backtrack(s.state, 0, "lscb", s.stats)
    assert lit_to_int(s.decide()) == -3


def test_decide_phase_saving_follows_last_assignment():
    f = Formula(2)
    f.add_clause([1, 2])
    s = Solver(f)
    s.state.enqueue_decision(lit(1))
    backtrack(s.state, 0, "lscb", s.stats)
    assert lit_to_int(s.decide()) == 1  # saved positive phase


def _scan_decide(solver):
    """Reference for Solver.decide: scan every variable for the unassigned one
    of maximal activity, lowest index on ties."""
    val = solver.state.val
    best = -1
    best_act = -1.0
    for v in range(1, solver.formula.num_vars + 1):
        if val[v << 1] == UNDEF and solver.state.activity[v] > best_act:
            best_act = solver.state.activity[v]
            best = v
    return (best << 1) | solver.state.saved_phase[best]


def test_decide_matches_activity_scan(monkeypatch):
    # VSIDS_DECAY -> instances.  Decay 0.5 doubles the bump each conflict,
    # so the 80-variable runs pass the 1e100 rescale and rebuild the heap
    # mid-search.
    groups = {
        0.95: [random_3sat(30, 128, seed) for seed in range(4)],
        0.5: [random_3sat(80, 341, seed) for seed in (0, 1)],
    }
    for mode, decay in itertools.product(("ncb", "wcb", "rscb", "lscb"), (0.95, 0.5)):
        instances = groups[decay]
        monkeypatch.setattr(solver_mod, "VSIDS_DECAY", decay)
        rescales = 0
        for f in instances:
            c = cfg(mode=mode, cb_threshold=1)
            s = Solver(f.copy(), c)
            n = f.num_vars
            last_inc = [s.var_inc]

            def checked_decide(s=s, n=n, last_inc=last_inc):
                nonlocal rescales
                if s.var_inc < last_inc[0]:
                    rescales += 1
                last_inc[0] = s.var_inc
                got = Solver.decide(s)
                assert got == _scan_decide(s), (mode, decay)
                assert len(s.state.heap) <= 2 * n
                return got

            s.decide = checked_decide
            s.solve()
            assert s.stats.decisions > 0
        if decay == 0.5:
            assert rescales > 0, mode


def test_solver_leaves_no_reference_cycle():
    # The benchmark solves with automatic GC off, so a cycle through the
    # solver would keep every solve's state alive until a collection.
    f = random_3sat(50, 218, 1)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        # default flags, fine checks, and the analysis flags of the
        # checked-30 workload (which minimizes with GC off) plus blockers
        variants = (
            {},
            {"check_level": "fine"},
            {"analyze": 1, "minimize": True, "blockers": True, "check_level": "coarse"},
        )
        for mode, flags in itertools.product(("ncb", "wcb", "rscb", "lscb"), variants):
            s = Solver(f.copy(), cfg(mode=mode, **flags))
            s.solve()
            del s
            assert gc.collect() == 0, (mode, flags)
    finally:
        if enabled:
            gc.enable()


def test_activity_replay_log_reproduces_ordering():
    total_conflicts = 0
    for seed in range(5, 17):
        f = random_3sat(20, 91, seed)
        s = Solver(f.copy(), cfg(mode="lscb", cb_threshold=1))
        bumped = []  # post-minimize literals; the solver bumps them right after the hook
        s.on_learn = lambda solver, pre, post: bumped.append(list(post.lits))
        s.solve()
        total_conflicts += s.stats.conflicts
        # replay bump, rescale and decay from scratch with the same arithmetic
        act = [0.0] * (f.num_vars + 1)
        inc = 1.0
        for lits in bumped:
            for x in lits:
                act[x >> 1] += inc
            if any(act[x >> 1] > 1e100 for x in lits):
                act = [a * (1.0 / 1e100) for a in act]
                inc *= 1.0 / 1e100
            inc /= solver_mod.VSIDS_DECAY
        # identical ordering (and in fact identical values)
        assert act == s.state.activity
    assert total_conflicts >= 100


def test_install_learned_binary_watches_both():
    f = s1_formula()
    from support import Rig

    rig = Rig(f, mode="lscb")
    rig.decide(1)
    rig.bcp()
    rig.decide(2)
    rig.bcp()
    rig.decide(3)
    confl = rig.bcp()
    learned = rig.analyze(confl, 2)
    rig.backtrack(2)
    clause = rig.install(learned)
    assert clause.learned
    assert sorted(clause.to_ints()) == [-3, -1]
    watched = {clause.w0, clause.w1}
    assert watched == set(clause.lits)


def test_install_unit_learned_asserts_at_level_zero():
    # {1,-2},{1,2}: deciding -1 conflicts and the learned unit {1} lands at 0
    f = Formula(2)
    f.add_clause([1, -2])
    f.add_clause([1, 2])
    s = Solver(f, cfg(mode="lscb", cb_threshold=1))
    verdict = s.solve()
    assert verdict.sat
    units = [c for c in s.formula.clauses if c.learned and len(c.lits) == 1]
    assert units and units[0].to_ints() == [1]


def test_verdicts_match_oracle_all_modes_and_strategies():
    mismatches = 0
    for n in (8, 12, 16):
        m = satlib_clause_count(n)
        for seed in range(12):
            f = random_3sat(n, m, seed)
            expect = brute_force(f)
            for mode in ("ncb", "wcb", "rscb", "lscb"):
                for strat in (1, 2):
                    s = Solver(
                        f.copy(),
                        cfg(mode=mode, analyze=strat, cb_threshold=1),
                    )
                    v = s.solve()
                    if v.sat != expect:
                        mismatches += 1
                    if v.sat:
                        for c in f.clauses:
                            assert any(
                                v.model[abs(x)] == (x > 0) for x in c.to_ints()
                            )
    assert mismatches == 0


def test_mode_invariant_matrix_small_soak():
    expectations = {
        "ncb": (1, 2, 3, 4, 5, 7),
        "wcb": (1, 2, 3),
        "rscb": (1, 2, 3, 4, 6),
        "lscb": (1, 2, 3, 4, 6, 7),
    }
    wcb_saw_inv4 = 0
    for mode, zero_ids in expectations.items():
        for seed in range(10):
            f = random_3sat(12, 51, seed)
            s = Solver(f.copy(), cfg(mode=mode, cb_threshold=1, check_level="fine"))
            s.solve()
            for inv in zero_ids:
                assert s.violations.get(inv, 0) == 0, (mode, inv, seed)
            if mode == "wcb":
                wcb_saw_inv4 += s.violations.get(4, 0)
    assert wcb_saw_inv4 > 0


def test_blockers_variant_keeps_verdicts_and_inv8():
    for seed in range(10):
        f = random_3sat(12, 51, seed)
        expect = brute_force(f)
        s = Solver(f.copy(), cfg(mode="lscb", cb_threshold=1, blockers=True))
        v = s.solve()
        assert v.sat == expect
        if v.sat:  # an unsatisfiable run ends in a (legitimate) conflict state
            assert violations(s.state, s.formula, 8) == []


def test_stats_deterministic_and_monotone():
    f = random_3sat(16, 68, 4)
    a = Solver(f.copy(), cfg(mode="lscb", cb_threshold=1))
    b = Solver(f.copy(), cfg(mode="lscb", cb_threshold=1))
    va, vb = a.solve(), b.solve()
    assert va.sat == vb.sat
    assert a.stats.as_dict() == b.stats.as_dict()


def test_flag_combination_soak_against_oracle():
    import itertools

    for n in (9, 13):
        m = satlib_clause_count(n)
        for seed in range(8):
            f = random_3sat(n, m, 70_000 + seed)
            expect = brute_force(f)
            for mode, minimize, blockers in itertools.product(
                ("ncb", "wcb", "rscb", "lscb"),
                (False, True),
                (False, True),
            ):
                c = cfg(
                    mode=mode,
                    analyze=1 if minimize else 2,
                    cb_threshold=1,
                    minimize=minimize,
                    blockers=blockers,
                    check_level="coarse",
                )
                s = Solver(f.copy(), c)
                assert s.solve().sat == expect, (n, seed, mode, minimize, blockers)
                assert s.violations.get(2, 0) == 0
                assert s.violations.get(3, 0) == 0


def test_solver_add_clause_before_solve():
    f = Formula(2)
    s = Solver(f)
    s.formula.add_clause([1, 2])
    s.formula.add_clause([-1, 2])
    assert s.solve().sat


def test_trace_stream_covers_main_events():
    events = []
    f = random_3sat(10, 43, 6)
    s = Solver(f.copy(), cfg(mode="lscb", cb_threshold=1), trace=events.append)
    s.solve()
    kinds = {e["kind"] for e in events}
    assert {"decide", "pop", "result"} <= kinds
    if s.stats.conflicts:
        assert "conflict" in kinds and "learn" in kinds and "backtrack" in kinds
