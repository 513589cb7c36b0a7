import itertools
import random
from collections import Counter

from lazysat.formula import Formula, lit_to_int, parse_dimacs
from lazysat.propagate import Propagator
from lazysat.solver import MODES, Solver, SolverConfig, Stats
from lazysat.state import FALSE, TRUE, TrailState
from lazysat.testkit import random_3sat
from support import lit_from_int as lit
from support import s1_replay, s2_replay


def make_rig(num_vars, clause_ints, mode="lscb"):
    f = Formula(num_vars)
    for ints in clause_ints:
        f.add_clause(ints)
    st = TrailState(num_vars, checked=True)
    prop = Propagator(f, st, mode, Stats())
    prop.init_watches()
    return f, st, prop


def test_search_idx_case_a_unassigned():
    f, st, prop = make_rig(3, [[1, 2, 3]])
    c = f.clauses[0]
    st.enqueue_decision(lit(-1))
    r = prop._search_idx(c, lit(1), lit(2))
    assert r == lit(3)


def test_search_idx_case_b_total_falsification():
    # watches 2 and 3; everything but the satisfied watch is falsified at
    # level 1, and the max-level tie breaks away from the falsified watch
    f, st, prop = make_rig(6, [[2, 3, -5], [-5, -3]])
    c = f.clauses[0]
    st.enqueue_decision(lit(5))  # falsifies -5 at level 1
    st.enqueue_implied(lit(-3), f.clauses[1], 1)  # falsifies 3 at level 1
    st.enqueue_decision(lit(2))  # satisfies the first watch at level 2
    r = prop._search_idx(c, lit(3), lit(2))
    assert r == lit(-5)
    assert st.level[r >> 1] == 1


def test_search_idx_matches_full_scan_on_falsified_clauses():
    # Everything but c2 falsified over a few levels, so ties are common: the
    # answer is the first literal of maximal level in clause order, c1 only
    # when no other reaches c1's level, and search_pos stays where it was.
    rng = random.Random(5)
    seen = Counter()
    for _ in range(400):
        n = rng.randint(3, 8)
        k = rng.randint(1, 3)  # levels, opened by decisions on k extra variables
        size = rng.randint(2, n)
        ints = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), size)]
        f = Formula(n + k)
        c = f.add_clause(ints)
        st = TrailState(n + k)
        prop = Propagator(f, st, "lscb", Stats())
        c1, c2 = rng.sample(c.lits, 2)
        for d in range(n + 1, n + k + 1):
            st.enqueue_decision(lit(d))
        for x in c.lits:
            if x != c2:
                st.enqueue_implied(x ^ 1, c, rng.randint(1, k))
        c2_state = rng.choice(("false", "true", "free"))
        if c2_state != "free":
            st.enqueue_implied(c2 ^ 1 if c2_state == "false" else c2, c, rng.randint(1, k))
        pos = c.search_pos = rng.randrange(size)
        others = [x for x in c.lits if x != c1 and x != c2]
        top = max(st.level[x >> 1] for x in others + [c1])
        ties = [x for x in others if st.level[x >> 1] == top]
        want = ties[0] if ties else c1
        assert prop._search_idx(c, c1, c2) == want
        assert c.search_pos == pos
        if want == c1:
            seen["keep c1"] += 1
        elif st.level[c1 >> 1] == top:
            seen["tie moves off c1"] += 1
        if len(ties) > 1:
            seen["first of several"] += 1
    assert len(seen) == 3, seen


def test_search_idx_takes_the_first_free_literal_from_search_pos():
    # a literal not falsified: the first after c1 and c2 are skipped, in
    # rotation from search_pos, which then moves to it
    rng = random.Random(6)
    found = rotated = 0
    for _ in range(300):
        n = rng.randint(3, 8)
        size = rng.randint(3, n)
        ints = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), size)]
        f = Formula(n)
        c = f.add_clause(ints)
        st = TrailState(n)
        prop = Propagator(f, st, "lscb", Stats())
        c1, c2 = rng.sample(c.lits, 2)
        st.enqueue_decision(c1 ^ 1)
        for x in c.lits:
            if x != c1 and rng.random() < 0.6:  # else left free
                st.enqueue_implied(x ^ 1 if rng.random() < 0.7 else x, c, 1)
        pos = c.search_pos = rng.randrange(size)
        order = [(pos + i) % size for i in range(size)]
        free = [i for i in order if c.lits[i] not in (c1, c2) and st.val[c.lits[i]] != FALSE]
        if not free:
            continue
        assert prop._search_idx(c, c1, c2) == c.lits[free[0]]
        assert c.search_pos == free[0]
        found += 1
        rotated += free[0] != min(free)
    assert found > 100 and rotated > 10, (found, rotated)


def test_bcp_records_mli_and_moves_watch():
    out = s1_replay("lscb")
    rig = out["rig"]
    f = rig.formula
    c3 = f.clauses[3]  # the ternary clause satisfied only out of order
    assert out["lazy_v2"] is c3
    assert out["lazy_level_v2"] == 1
    # its falsified watch moved off the implied-late literal
    watched = {lit_to_int(c3.w0), lit_to_int(c3.w1)}
    assert watched == {2, -5}
    assert rig.stats.mli_detected == 1


def test_bcp_conflict_on_pending_queue():
    out = s2_replay()
    rig = out["rig"]
    st = rig.state
    # make the two pending low-priority literals propagated by hand, then
    # drive the remaining queued literal directly
    st.head += 2
    assert st.trail[st.head :] == [lit(7)]
    confl = rig.prop.bcp()
    assert confl is rig.formula.clauses[4]
    assert all(st.val[x] == FALSE for x in confl.lits)
    assert st.trail[st.head] == lit(7)


def test_bcp_empty_watchlist_no_change():
    f, st, prop = make_rig(3, [[1, 2]])
    st.enqueue_decision(lit(3))
    trail_before = list(st.trail)
    assert prop.bcp() is None
    assert st.trail == trail_before
    assert st.head == 1


def test_bcp_empty_queue_is_noop():
    f, st, prop = make_rig(3, [[1, 2]])
    assert prop.bcp() is None
    assert prop.stats.propagations == 0


def test_bcp_on_pop_sees_the_advanced_head():
    # an unchecked, untraced state runs the inline path; on_pop still sees
    # the head and trail the reference kernel shows it
    seen = []
    for kernel in (Propagator.bcp, reference_bcp):
        f = Formula(4)
        for ints in ([1, 2], [1, 3], [-2, -3, 4]):
            f.add_clause(ints)
        st = TrailState(4)
        prop = Propagator(f, st, "lscb", Stats())
        prop.init_watches()
        st.enqueue_decision(lit(-1))
        heads = []
        assert kernel(prop, lambda: heads.append((st.head, len(st.trail)))) is None
        seen.append(heads)
    assert seen[0] == seen[1] == [(1, 3), (2, 3), (3, 4)]


def test_bcp_conflict_leaves_trigger_queued():
    out = s1_replay("lscb")
    snap = out["snap_second_conflict"]
    assert snap["head"] == 3
    assert len(snap["trail"]) == 5


def test_propagation_counter_once_per_pop():
    f, st, prop = make_rig(4, [[1, 2], [1, 3]])
    st.enqueue_decision(lit(-1))
    assert prop.bcp() is None
    # popped: -1, then the two implied literals
    assert prop.stats.propagations == 3
    assert st.head == len(st.trail)


def test_watch_lists_consistent_with_watch_slots():
    for mode in ("ncb", "wcb", "rscb", "lscb"):
        f = random_3sat(20, 91, 3)
        cfg = SolverConfig(mode=mode, cb_threshold=1)
        s = Solver(f, cfg)
        s.solve()
        # every watched clause appears exactly in the lists of its two slots
        from collections import Counter

        membership = Counter()
        for bucket_lit, bucket in enumerate(s.prop.wl):
            for c in bucket:
                membership[(id(c), bucket_lit)] += 1
        for c in f.clauses:
            if len(c.lits) < 2:
                continue
            a, b = c.w0, c.w1
            assert membership.pop((id(c), a)) == 1
            assert membership.pop((id(c), b)) == 1
        assert not membership


def mixed_formula(seed):
    """Clauses of 1 to 6 literals with learned ones stored among them, so that
    a learned clause may come before an original one."""
    rng = random.Random(seed)
    n = rng.randint(6, 14)
    f = Formula(n)
    if rng.random() < 0.05:
        f.add_clause([])
    for _ in range(rng.randint(n, 4 * n)):
        vs = rng.sample(range(1, n + 1), rng.choice((1, 2, 3, 3, 4, 6)))
        ints = [v if rng.random() < 0.5 else -v for v in vs]
        if len(ints) > 1 and rng.random() < 0.1:
            f.store([lit(x) for x in ints], learned=True)
        else:
            f.add_clause(ints)
    return f


def clause_fields(formula):
    return [
        (c.lits, c.w0, c.w1, c.learned, c.index, c.search_pos) for c in formula.clauses
    ]


def test_init_watches_watches_the_first_two_literals():
    # each clause of two or more literals joins the lists of lits[0] and
    # lits[1], in clause order; unit clauses are returned in order and never
    # watched
    for seed in range(40):
        f, twin = mixed_formula(seed), mixed_formula(seed)
        prop = Propagator(f, TrailState(f.num_vars), "lscb", Stats())
        units = prop.init_watches()
        want_wl = [[] for _ in prop.wl]
        for c in twin.clauses:
            if len(c.lits) >= 2:
                want_wl[c.lits[0]].append(c.index)
                want_wl[c.lits[1]].append(c.index)
                assert (c.w0, c.w1) == (c.lits[0], c.lits[1])
        assert [c.index for c in units] == [c.index for c in twin.clauses if len(c.lits) < 2]
        assert [[c.index for c in bucket] for bucket in prop.wl] == want_wl
        assert clause_fields(f) == clause_fields(twin)


def rewatch_rig():
    """Clause 0 = (1 2 3 4) watching 1 and 2, with neighbours in every list.

    Watch lists start as 1: [c0, c1], 2: [c0, c2], 3: [c1, c3], 4: [c2, c3].
    """
    f, st, prop = make_rig(4, [[1, 2, 3, 4], [1, 3], [2, 4], [3, 4]])
    return f.clauses[0], prop


def watch_lists(prop):
    """Positive-literal watch lists as clause indices; no negative literal is watched."""
    assert not any(prop.wl[lit(-v)] for v in range(1, 5))
    return {v: [c.index for c in prop.wl[lit(v)]] for v in range(1, 5)}


def assert_watched_once(prop, clause):
    for w in (clause.w0, clause.w1):
        assert sum(c is clause for c in prop.wl[w]) == 1


def test_rewatch_same_pair_is_a_no_op():
    for pair in ((1, 2), (2, 1)):
        c0, prop = rewatch_rig()
        before = watch_lists(prop)
        prop.rewatch(c0, lit(pair[0]), lit(pair[1]))
        assert (c0.w0, c0.w1) == (lit(1), lit(2))
        assert watch_lists(prop) == before
        assert_watched_once(prop, c0)


def test_rewatch_keeps_one_watch_in_place():
    c0, prop = rewatch_rig()
    prop.rewatch(c0, lit(3), lit(1))
    assert (c0.w0, c0.w1) == (lit(3), lit(1))
    # 1 keeps c0 at its position; 2 loses it; 3 gains it at the end
    assert watch_lists(prop) == {1: [0, 1], 2: [2], 3: [1, 3, 0], 4: [2, 3]}
    assert_watched_once(prop, c0)


def test_rewatch_replaces_both_watches():
    c0, prop = rewatch_rig()
    prop.rewatch(c0, lit(4), lit(3))
    assert (c0.w0, c0.w1) == (lit(4), lit(3))
    assert watch_lists(prop) == {1: [1], 2: [2], 3: [1, 3, 0], 4: [2, 3, 0]}
    assert_watched_once(prop, c0)


def test_deterministic_stats_for_fixed_seed_and_config():
    for mode in ("ncb", "wcb", "rscb", "lscb"):
        f = random_3sat(20, 91, 9)
        runs = []
        for _ in range(2):
            s = Solver(f.copy(), SolverConfig(mode=mode, cb_threshold=1))
            v = s.solve()
            runs.append((v.sat, s.stats.as_dict()))
        assert runs[0] == runs[1]


# Ternary watch visits, table-driven: every pair (w0, w1) of watched literal
# positions with c1 in either slot, the third literal unassigned, true, or
# false below/at/above c1's level, and c2 unassigned, true below or above
# c1's level, or false, in both a classical and the lazy mode.  c1 is
# falsified at level 2.
C1_LEVEL = 2
THIRD_STATES = [None, ("true", 2), ("false", 1), ("false", 2), ("false", 3)]
C2_STATES = [None, ("true", 1), ("true", 3), ("false", 1)]


def ternary_case(mode, w0, w1, c1_slot, third, c2_state):
    """A watched ternary clause over variables 1..3 and a trail that falsifies
    c1 at level 2; variables 4..6 are the decisions that open levels 1..3.
    The literal falsifying c1 comes last on the trail and is the only queued
    one, so ``bcp`` visits exactly the clauses watching c1.

    Returns (state, propagator, clause, c1, c2)."""
    f = Formula(6)
    clause = f.add_clause([1, 2, 3])
    lits = clause.lits
    clause.w0, clause.w1 = lits[w0], lits[w1]
    c1 = lits[(w0, w1)[c1_slot]]
    c2 = lits[(w0, w1)[1 - c1_slot]]
    clause.search_pos = (w0, w1)[c1_slot]  # not the third slot, so a write shows
    st = TrailState(6)
    prop = Propagator(f, st, mode, Stats())
    prop.init_watches()
    wanted = []
    for x, state in ((lits[3 - w0 - w1], third), (c2, c2_state)):
        if state is not None:
            polarity, lvl = state
            wanted.append((x if polarity == "true" else x ^ 1, lvl))
    for lvl in (1, 2, 3):
        st.enqueue_decision(lit(3 + lvl))
        for x, at in wanted:
            if at == lvl:
                st.enqueue_implied(x, None, lvl)  # reasons play no part in a watch visit
    st.enqueue_implied(c1 ^ 1, None, C1_LEVEL)
    st.head = len(st.trail) - 1
    return st, prop, clause, c1, c2


def test_every_clause_holds_its_ternary_sum():
    # bcp takes a ternary clause's one replacement candidate from the stored
    # sum3, so every way of making a Clause must store sum(lits) for three
    # literals and 0 for any other length, and solving must not change it
    made = Counter()  # (source, holds three literals) -> clauses checked

    def check(source, clauses):
        for c in clauses:
            assert c.sum3 == (sum(c.lits) if len(c.lits) == 3 else 0), (source, c)
            made[source, len(c.lits) == 3] += 1

    for seed in range(8):
        rng = random.Random(seed)
        n = 30
        lines = ["p cnf %d 0" % n]
        for _ in range(130):
            vs = rng.sample(range(1, n + 1), rng.choice((3,) * 30 + (1, 2, 2, 2, 4, 4, 5)))
            lines.append(" ".join(str(v if rng.random() < 0.5 else -v) for v in vs) + " 0")
        f = parse_dimacs("\n".join(lines) + "\n")
        parsed = list(f.clauses)
        added = [f.add_clause(rng.sample(range(-n, 0), k)) for k in (2, 3, 4)]
        stored = [
            f.store([lit(v) for v in rng.sample(range(1, n + 1), k)], learned=k > 2)
            for k in (2, 3, 4)
        ]
        for mode in MODES:
            g = f.copy()
            copied = list(g.clauses)
            Solver(g, SolverConfig(mode=mode, cb_threshold=1)).solve()
            check("copy", copied)
            check("install_learned", g.clauses[len(copied) :])
        check("parse_dimacs", parsed)
        check("add_clause", added)
        check("store", stored)
    sources = ("parse_dimacs", "add_clause", "store", "copy", "install_learned")
    assert all(made[source, three] for source in sources for three in (False, True)), made


def test_ternary_watch_visit_matches_search_idx():
    slot_pairs = [(w0, w1) for w0 in range(3) for w1 in range(3) if w0 != w1]
    cases = list(
        itertools.product(("wcb", "lscb"), slot_pairs, (0, 1), THIRD_STATES, C2_STATES)
    )
    outcomes = set()
    for mode, (w0, w1), c1_slot, third, c2_state in cases:
        case = (mode, w0, w1, c1_slot, third, c2_state)
        # the reference answer, taken on an identical copy
        _, ref_prop, ref, c1, c2 = ternary_case(*case)
        st, prop, clause, _, _ = ternary_case(*case)
        level = st.level
        lvl_c1 = level[c1 >> 1]
        c2_true = st.val[c2] == TRUE
        slots = [clause.w0, clause.w1]  # the watched literals
        search_pos = clause.search_pos
        trail = list(st.trail)
        conflict = mli = implied_at = None
        if not (c2_true and (mode != "lscb" or level[c2 >> 1] <= lvl_c1)):
            r = ref_prop._search_idx(ref, c1, c2)
            if r != c1:
                slots[slots.index(c1)] = r
            if r == c1:
                outcomes.add("keep")
            else:
                outcomes.add("move to false" if st.val[r] == FALSE else "move to free")
            if r == c1 or st.val[r] == FALSE:
                lvl_r = level[r >> 1]
                if st.val[c2] == FALSE:
                    conflict = clause
                    outcomes.add("conflict")
                elif not c2_true:
                    trail.append(c2)
                    implied_at = lvl_r
                    outcomes.add("unit")
                elif level[c2 >> 1] > lvl_r:
                    mli = clause
                    outcomes.add("mli")
        assert prop.bcp() is conflict, case
        assert st.head == (len(trail) - 1 if conflict else len(st.trail)), case
        assert [clause.w0, clause.w1] == slots, case
        assert clause.search_pos == search_pos, case
        assert st.trail == trail, case
        if implied_at is not None:
            assert level[c2 >> 1] == implied_at, case
        assert st.lazy_cl[c2 >> 1] is mli, case
        holders = sorted(x for x, bucket in enumerate(prop.wl) for c in bucket if c is clause)
        assert holders == sorted(slots), case
    assert outcomes == {"keep", "move to false", "move to free", "conflict", "unit", "mli"}


# The per-literal kernel that ``Propagator.bcp`` replaced, kept here as the
# reference the one-frame kernel must agree with: one call per queued
# literal, implications through ``enqueue_implied``, and each pop traced
# before the head moves.


def reference_propagate_literal(prop, lit):
    st = prop.state
    val = st.val
    level = st.level
    lazy_lvl = st.lazy_lvl
    lazy_mode = prop.lazy_mode
    c1 = lit ^ 1
    lvl_c1 = level[c1 >> 1]
    watchers = prop.wl[c1]
    i = j = 0
    n_w = len(watchers)
    while i < n_w:
        clause = watchers[i]
        i += 1
        a = clause.w0
        c2 = clause.w1 if a == c1 else a
        vc2 = val[c2]
        if vc2 == TRUE:
            if not lazy_mode or level[c2 >> 1] <= lvl_c1 or lazy_lvl[c2 >> 1] <= lvl_c1:
                watchers[j] = clause
                j += 1
                continue
        lits = clause.lits
        if len(lits) == 3:
            r = next(x for x in lits if x != c1 and x != c2)
            if val[r] == FALSE and level[r >> 1] < lvl_c1:
                r = c1
        else:
            r = prop._search_idx(clause, c1, c2)
        if r == c1:
            watchers[j] = clause
            j += 1
        else:
            if clause.w0 == c1:
                clause.w0 = r
            else:
                clause.w1 = r
            prop.wl[r].append(clause)
            if val[r ^ 1] != TRUE:
                continue
        if vc2 == FALSE:
            while i < n_w:
                watchers[j] = watchers[i]
                j += 1
                i += 1
            del watchers[j:]
            return clause
        lvl_r = level[r >> 1]
        if vc2 == TRUE:
            if level[c2 >> 1] > lvl_r and lazy_lvl[c2 >> 1] > lvl_r:
                st.set_lazy(c2, clause, lvl_r)
                if prop.stats is not None:
                    prop.stats.mli_detected += 1
            continue
        st.enqueue_implied(c2, clause, lvl_r)
    del watchers[j:]
    return None


def reference_bcp(prop, on_pop=None):
    st = prop.state
    stats = prop.stats
    while st.head < len(st.trail):
        conflict = reference_propagate_literal(prop, st.trail[st.head])
        if conflict is not None:
            return conflict
        if st.trace is not None:
            st.trace({"kind": "pop", "lit": lit_to_int(st.trail[st.head])})
        st.head += 1
        if stats is not None:
            stats.propagations += 1
        if on_pop is not None and st.head < len(st.trail):
            on_pop()
    return None


def kernel_snapshot(solver, conflict):
    """Everything a bcp call can touch, with clauses named by index."""
    st = solver.state

    def name(c):
        return None if c is None else c.index

    return (
        name(conflict),
        list(st.trail),
        st.head,
        list(st.level),
        [name(c) for c in st.reason],
        list(st.saved_phase),
        [name(c) for c in st.lazy_cl],
        list(st.lazy_lvl),
        [(c.w0, c.w1, c.search_pos) for c in solver.formula.clauses],
        [[c.index for c in bucket] for bucket in solver.prop.wl],
        solver.stats.as_dict(),
        dict(solver.violations),
    )


def recorded_solve(formula, cfg, kernel, traced):
    """Solve with ``kernel(prop, on_pop)`` as the solver's bcp; returns the
    verdict, a snapshot after every bcp call and the trace events."""
    events = []
    solver = Solver(formula, cfg, trace=events.append if traced else None)
    snaps = []

    def run(on_pop=None):
        conflict = kernel(solver.prop, on_pop)
        snaps.append(kernel_snapshot(solver, conflict))
        return conflict

    solver.prop.bcp = run
    verdict = solver.solve()
    return verdict.sat, snaps, events


def test_bcp_matches_reference_kernel():
    # check_level "off" without a trace runs bcp's inline path; "fine" with
    # a trace runs its hooked path (checked asserts, trace events, on_pop)
    paths = (("off", False), ("fine", True))
    totals = {path: 0 for path in paths}
    mli = 0
    for mode, (check_level, traced), (n, m, seed) in itertools.product(
        MODES, paths, ((30, 128, 0), (30, 128, 1), (50, 218, 2), (50, 218, 3))
    ):
        case = (mode, check_level, n, seed)
        cfg = SolverConfig(mode=mode, cb_threshold=1, check_level=check_level)
        f = random_3sat(n, m, seed)
        want = recorded_solve(f.copy(), cfg, reference_bcp, traced)
        got = recorded_solve(f.copy(), cfg, Propagator.bcp, traced)
        assert got[0] == want[0], case
        assert len(got[1]) == len(want[1]), case
        for k, (g, w) in enumerate(zip(got[1], want[1])):
            assert g == w, (case, k)
        assert got[2] == want[2], case
        totals[(check_level, traced)] += len(got[1])
        mli += got[1][-1][10]["mli_detected"]
    assert all(n > 1000 for n in totals.values()), totals
    assert mli > 0
