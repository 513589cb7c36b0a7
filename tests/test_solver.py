import gc
import itertools
import random
from collections import Counter

import pytest

import lazysat.solver as solver_mod
from lazysat.analyze import LearnedClause
from lazysat.checker import check_ids
from lazysat.formula import Formula, lit_to_int
from lazysat.solver import Solver, SolverConfig, Stats, choose_backtrack_level
from lazysat.solver import SolverConfig as cfg
from lazysat.state import UNDEF, backtrack
from lazysat.testkit import brute_force, random_3sat, satlib_clause_count
from support import lit_from_int as lit
from support import ZERO_IDS, replay_trace, s1_formula, solve_record


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


def test_modes_agree_without_chronological_backtracks(monkeypatch):
    # When choose_backtrack_level never leaves second_level, the four modes
    # backjump alike, so they search alike: same verdict, model, Stats,
    # violations and learned clauses.  T=1 is the control where they do not.
    chronological = [0]

    def counted(learned, config):
        d = choose_backtrack_level(learned, config)
        chronological[0] += d != learned.second_level
        return d

    monkeypatch.setattr(solver_mod, "choose_backtrack_level", counted)
    extras = ({}, {"analyze": 1, "minimize": True})
    control = 0
    for n, m, seed in [(30, 128, s) for s in range(5)] + [(50, 218, 0)]:
        f = random_3sat(n, m, seed)
        for threshold, flags in itertools.product((8, 10**9), extras):
            chronological[0] = 0
            records = [
                solve_record(f, cfg(mode, cb_threshold=threshold, check_level="coarse", **flags))
                for mode in solver_mod.MODES
            ]
            assert chronological[0] == 0, (n, seed, threshold, flags)
            assert all(r == records[0] for r in records), (n, seed, threshold, flags)
        chronological[0] = 0
        for mode in solver_mod.MODES:
            solve_record(f, cfg(mode, cb_threshold=1, check_level="coarse"))
        control += chronological[0]
    assert control > 0


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


def test_decide_names_a_broken_heap():
    # step() decides only while a variable is unassigned, so finding none
    # means the two-tier invariant of rebuild_heap broke, not that the
    # caller erred.  The heap tier fails when an unassigned variable of
    # positive activity has no entry; the index tier when the cursor has
    # passed an unassigned zero-activity variable that has none.
    message = r"no unassigned variable in the heap or at or after the cursor \(rebuild_heap\)"
    for broken in ("positive activity", "cursor past the end"):
        s = Solver(random_3sat(20, 91, 0), cfg(cb_threshold=1))
        s.setup()
        s.prop.bcp()
        st = s.state
        n = s.formula.num_vars
        assert len(st.trail) < n
        if broken == "positive activity":
            for v in range(1, n + 1):
                st.activity[v] = 1.0
        else:
            assert any(st.val[v << 1] == UNDEF for v in range(1, n + 1))
            st.cursor = n + 1
        st.heap.clear()
        with pytest.raises(AssertionError, match=message):
            s.decide()


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


class _CheckedDecide:
    """Wraps one solver's decide: checks each decision against the full scan,
    logs each decided variable with the tier that served it, counts the
    rescales between decisions, and checks that the cursor never moves back
    between two decisions unless the heap was rebuilt."""

    def __init__(self, s):
        self.s = s
        self.log = []  # (variable, "heap" or "index") per decision
        self.rebuilds = 0
        self.rescales = 0
        self.var_inc = s.var_inc
        self.cursor = s.state.cursor
        self.cursor_rebuilds = 0
        rebuild = s.state.rebuild_heap

        def counted_rebuild():
            self.rebuilds += 1
            rebuild()

        s.state.rebuild_heap = counted_rebuild
        s.decide = self

    def __call__(self):
        s = self.s
        self.rescales += s.var_inc < self.var_inc
        self.var_inc = s.var_inc
        got = Solver.decide(s)
        assert got == _scan_decide(s)
        assert len(s.state.heap) <= 2 * s.formula.num_vars
        # the heap tier leaves its decision on top; the index tier drains it
        self.log.append((got >> 1, "heap" if s.state.heap else "index"))
        cursor = s.state.cursor
        assert cursor >= self.cursor or self.rebuilds > self.cursor_rebuilds
        self.cursor = cursor
        self.cursor_rebuilds = self.rebuilds
        return got


def test_decide_matches_activity_scan(monkeypatch):
    # VSIDS_DECAY -> instances.  Decay 0.5 doubles the bump each conflict,
    # so the 80-variable runs pass the 1e100 rescale and rebuild the heap
    # mid-search.  The 1500-variable instance has a few conflicts and
    # hundreds of decisions, so the cursor serves most of them.
    groups = {
        (30, 0.95): [random_3sat(30, 128, seed) for seed in range(4)],
        (80, 0.5): [random_3sat(80, 341, seed) for seed in (0, 1)],
        (1500, 0.95): [random_3sat(1500, 3750, 0)],
    }
    for mode, (n, decay) in itertools.product(("ncb", "wcb", "rscb", "lscb"), groups):
        monkeypatch.setattr(solver_mod, "VSIDS_DECAY", decay)
        rescales = 0
        by_tier = Counter()
        for f in groups[n, decay]:
            s = Solver(f.copy(), cfg(mode=mode, cb_threshold=1))
            checked = _CheckedDecide(s)
            s.solve()
            assert s.stats.decisions > 0
            rescales += checked.rescales
            by_tier.update(tier for _, tier in checked.log)
        if decay == 0.5:
            assert rescales > 0, mode
        if n == 30:
            assert by_tier["heap"] > 0 and by_tier["index"] > 0, (mode, by_tier)
        if n == 1500:
            assert by_tier["index"] > by_tier["heap"], (mode, by_tier)


def test_decide_after_an_activity_rescales_to_zero():
    # A rescale that underflows an activity to 0.0 is the only way a
    # variable leaves the heap tier for the index tier again.
    s = Solver(random_3sat(30, 128, 3), cfg(cb_threshold=1))
    checked = _CheckedDecide(s)
    assert s.setup() is None
    while s.step() != "learn":
        pass
    st = s.state
    # The latest decision that the first conflict left unbumped.  It is
    # assigned, so giving it a positive activity keeps the invariant, and
    # the next backtrack that unassigns it pushes it onto the heap.
    v = [x >> 1 for x in st.decisions if st.activity[x >> 1] == 0.0][-1]
    st.activity[v] = 5e-324
    # Within two conflicts a bump passes VSIDS_RESCALE, and the rescale
    # underflows v's activity to 0.0 unless a conflict bumps v first.
    s.var_inc = solver_mod.VSIDS_RESCALE * 0.99
    rebuilds = checked.rebuilds
    while st.activity[v] != 0.0:
        assert s.step() not in ("sat", "unsat")
    assert checked.rebuilds > rebuilds and s.var_inc < 2.0  # rescaled by 1e-100
    fell = len(checked.log)
    kind = None
    while kind not in ("sat", "unsat"):
        kind = s.step()
    assert (v, "index") in checked.log[fell:]


def test_solver_leaves_no_reference_cycle():
    # The benchmark solves with automatic GC off, so a cycle through the
    # solver would keep every solve's state alive until a collection.
    f = random_3sat(50, 218, 1)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        # default flags, fine checks, and the analysis flags of the
        # checked-30 workload (which minimizes with GC off)
        variants = (
            {},
            {"check_level": "fine"},
            {"analyze": 1, "minimize": True, "check_level": "coarse"},
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


def test_asserting_conflict_is_rewatched_not_copied():
    # C = {-4, -1, -2} is falsified with only -2 at the top level, so its
    # analysis makes no step; the episode re-watches C on the asserting -2
    # and the second-level -4 instead of storing a copy of it
    from support import Rig

    f = Formula(4)
    conflict = f.add_clause([-4, -1, -2])
    r4 = f.add_clause([4, -1])
    r2 = f.add_clause([2, -3])
    rig = Rig(f, mode="lscb")
    events = []
    rig.state.trace = events.append
    rig.decide(1)
    rig.imply(4, r4, 1)
    rig.decide(3)
    rig.imply(2, r2, 2)
    assert (conflict.w0, conflict.w1) == (lit(-4), lit(-1))
    assert rig.solver._handle_conflict(conflict)
    assert len(f.clauses) == 3 and rig.stats.learned == 0
    assert (conflict.w0, conflict.w1) == (lit(-2), lit(-4))
    assert conflict in rig.prop.wl[lit(-2)] and conflict in rig.prop.wl[lit(-4)]
    assert conflict not in rig.prop.wl[lit(-1)]
    assert rig.state.reason[2] is conflict and rig.state.level[2] == 1
    assert [e["clause"] for e in events if e["kind"] in ("conflict", "learn")] == [0, 0]


def test_refalsified_stored_conflict_is_not_stored_twice():
    # Under lscb with the classical stop, lazy reimplication can falsify an
    # asserting conflict clause again after backtracking.  Its second
    # analysis also makes no step, and the clause must be re-watched, not
    # stored a second time.
    instances = [(30, 128, s) for s in (207, 398, 418, 854, 1070, 1356)] + [(50, 218, 4)]
    named = 0  # re-analyses, within one episode, of a conflict that is a stored clause
    for (n, m, seed), minimize in itertools.product(instances, (False, True)):
        events = []
        config = cfg(mode="lscb", analyze=1, cb_threshold=1, minimize=minimize)
        s = Solver(random_3sat(n, m, seed), config, trace=events.append)
        s.solve()
        stored = set()
        for c in s.formula.clauses:
            key = frozenset(c.lits)
            assert not (c.learned and key in stored), (n, seed, minimize, c)
            stored.add(key)
        in_episode = False
        for e in events:
            if e["kind"] == "conflict":
                named += in_episode and e["clause"] is not None
                in_episode = True
            elif e["kind"] == "learn":
                in_episode = False
    assert named > 0


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
    wcb_saw_inv4 = 0
    for mode, zero_ids in ZERO_IDS.items():
        for seed in range(10):
            f = random_3sat(12, 51, seed)
            s = Solver(f.copy(), cfg(mode=mode, cb_threshold=1, check_level="fine"))
            s.solve()
            for inv in zero_ids:
                assert s.violations.get(inv, 0) == 0, (mode, inv, seed)
            if mode == "wcb":
                wcb_saw_inv4 += s.violations.get(4, 0)
    assert wcb_saw_inv4 > 0


def test_coarse_checks_once_per_decide_learn_and_sat_step(monkeypatch):
    # The checkpoint contract of Solver._checkpoint: coarse checks after each
    # conflict-free propagation, which ends a "decide" or "sat" step, and
    # after each learned-clause install, which ends a "learn" step; no check
    # follows a decision.  A stub stands in for the scan, which only counts.
    calls = [0]

    def counted(state, formula):
        calls[0] += 1
        return []

    monkeypatch.setattr(solver_mod.checker, "check_ids", counted)
    totals = Counter()
    for mode, analyze, minimize in itertools.product(ZERO_IDS, (1, 2), (False, True)):
        for seed in range(8):
            c = cfg(mode, analyze, cb_threshold=1, minimize=minimize, check_level="coarse")
            s = Solver(random_3sat(30, 128, seed), c)
            calls[0] = 0
            kinds = Counter()
            assert s.setup() is None
            while not (kinds["sat"] or kinds["unsat"]):
                kinds[s.step()] += 1
            assert calls[0] == kinds["decide"] + kinds["learn"] + kinds["sat"], (mode, seed)
            totals += kinds
    assert totals["sat"] and totals["unsat"] and totals["learn"], totals


def test_fine_never_checks_one_state_twice(monkeypatch):
    # fine checks after each pop that leaves work queued (bcp's on_pop), and
    # step checks a propagation's end state once, so no two consecutive scans
    # of a solve see the same trail, head, clause count and decisions.
    seen = []

    def recorded(state, formula):
        seen.append((list(state.trail), state.head, len(formula.clauses), list(state.decisions)))
        return []

    monkeypatch.setattr(solver_mod.checker, "check_ids", recorded)
    scans = 0
    for mode in ZERO_IDS:
        for seed in range(10):
            seen.clear()
            Solver(random_3sat(20, 91, seed), cfg(mode, cb_threshold=1, check_level="fine")).solve()
            repeats = sum(seen[k] == seen[k - 1] for k in range(1, len(seen)))
            assert repeats == 0, (mode, seed, repeats, len(seen))
            scans += len(seen)
    assert scans > 1000, scans


def test_a_decision_adds_no_checker_report():
    # Why no checkpoint follows a decision: its literal is pending, at a new
    # top level, so each (invariant, subject) pair reported after it was
    # already reported just before it.
    def pairs(s):
        return {(v.invariant, v.subject) for v in check_ids(s.state, s.formula)}

    decisions = 0
    grid = itertools.product(ZERO_IDS, (1, 2), (False, True))
    for (mode, analyze, minimize), seed in itertools.product(grid, range(7000, 7003)):
        c = cfg(mode, analyze, cb_threshold=1, minimize=minimize)
        s = Solver(random_3sat(30, 128, seed), c)
        assert s.setup() is None
        while True:
            conflict = s.prop.bcp()
            if conflict is not None:
                if not s._handle_conflict(conflict):
                    break
                continue
            if len(s.state.trail) == s.formula.num_vars:
                break
            before = pairs(s)
            s.state.enqueue_decision(s.decide())
            after = pairs(s)
            assert after <= before, (mode, analyze, minimize, seed, after - before)
            decisions += 1
    assert decisions > 0


def _mixed_formula(seed):
    """Random formula with clauses of length 1 to 6, mostly 3, added as drawn."""
    rng = random.Random(seed)
    n = rng.randint(20, 40)
    f = Formula(n)
    for _ in range(round(n * rng.uniform(4.0, 6.0))):
        r = rng.random()
        k = 1 if r < 0.01 else 2 if r < 0.12 else 3 if r < 0.62 else rng.randint(4, 6)
        f.add_clause([rng.choice((1, -1)) * rng.randint(1, n) for _ in range(k)])
    return f


def _satisfies(model, f):
    return all(any(model[abs(x)] == (x > 0) for x in c.to_ints()) for c in f.clauses)


def test_mixed_clause_lengths_against_oracle():
    # Units, binaries and long clauses, with collapsed duplicates and dropped
    # tautologies, reach every mode; random_3sat alone never feeds them.
    for seed in range(40):
        f = _mixed_formula(seed)
        expect = brute_force(f)
        for mode, analyze, minimize, t in itertools.product(
            ZERO_IDS, (1, 2), (False, True), (1, 100)
        ):
            c = cfg(mode, analyze, t, minimize=minimize, check_level="coarse")
            s = Solver(f.copy(), c)
            v = s.solve()
            assert v.sat == expect, (seed, mode, analyze, minimize, t)
            assert not v.sat or _satisfies(v.model, f)
            for inv in ZERO_IDS[mode]:
                assert s.violations.get(inv, 0) == 0, (seed, mode, analyze, minimize, t, inv)


def test_mixed_clause_lengths_fine_checked_trace_replays():
    for seed in range(40):
        f = _mixed_formula(seed)
        expect = brute_force(f)
        for mode, analyze in itertools.product(ZERO_IDS, (1, 2)):
            events = []
            c = cfg(mode, analyze, cb_threshold=1, check_level="fine")
            s = Solver(f.copy(), c, trace=events.append)
            assert s.solve().sat == expect, (seed, mode, analyze)
            for inv in ZERO_IDS[mode]:
                assert s.violations.get(inv, 0) == 0, (seed, mode, analyze, inv)
            trail, head = replay_trace(events)
            assert trail == [(lit_to_int(x), s.state.level[x >> 1]) for x in s.state.trail]
            assert head == s.state.head


def test_stats_deterministic_and_monotone():
    f = random_3sat(16, 68, 4)
    a = Solver(f.copy(), cfg(mode="lscb", cb_threshold=1))
    b = Solver(f.copy(), cfg(mode="lscb", cb_threshold=1))
    va, vb = a.solve(), b.solve()
    assert va.sat == vb.sat
    assert a.stats.as_dict() == b.stats.as_dict()
    # Stepped by hand, no counter ever decreases from one step to the next.
    # The instance moves every counter, reimplications included.
    s = Solver(random_3sat(20, 91, 3), cfg(mode="lscb", cb_threshold=1))
    assert s.setup() is None
    before = s.stats.as_dict()
    kind = None
    while kind not in ("sat", "unsat"):
        kind = s.step()
        after = s.stats.as_dict()
        assert all(after[k] >= before[k] for k in Stats.FIELDS), (kind, before, after)
        before = after
    assert all(before[k] > 0 for k in Stats.FIELDS), before


def test_flag_combination_soak_against_oracle():
    import itertools

    for n in (9, 13):
        m = satlib_clause_count(n)
        for seed in range(8):
            f = random_3sat(n, m, 70_000 + seed)
            expect = brute_force(f)
            for mode, minimize in itertools.product(("ncb", "wcb", "rscb", "lscb"), (False, True)):
                c = cfg(
                    mode=mode,
                    analyze=1 if minimize else 2,
                    cb_threshold=1,
                    minimize=minimize,
                    check_level="coarse",
                )
                s = Solver(f.copy(), c)
                assert s.solve().sat == expect, (n, seed, mode, minimize)
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
