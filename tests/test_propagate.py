import itertools
import random

from lazysat.formula import Formula, lit_from_int, lit_to_int
from lazysat.propagate import Propagator
from lazysat.solver import Solver, SolverConfig, Stats
from lazysat.state import FALSE, TRUE, TrailState
from lazysat.testkit import random_3sat, s1_replay, s2_replay


def lit(n):
    return lit_from_int(n)


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
    r = c.lits[prop._search_idx(c, lit(1), lit(2))]
    assert r == lit(3)


def test_search_idx_case_b_total_falsification():
    # watches 2 and 3; everything but the satisfied watch is falsified at
    # level 1, and the max-level tie breaks away from the falsified watch
    f, st, prop = make_rig(6, [[2, 3, -5], [-5, -3]])
    c = f.clauses[0]
    st.enqueue_decision(lit(5))  # falsifies -5 at level 1
    st.enqueue_implied(lit(-3), f.clauses[1], 1)  # falsifies 3 at level 1
    st.enqueue_decision(lit(2))  # satisfies the first watch at level 2
    r = c.lits[prop._search_idx(c, lit(3), lit(2))]
    assert r == lit(-5)
    assert st.lit_level(r) == 1


def test_search_idx_matches_full_scan_on_falsified_clauses():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(3, 8)
        size = rng.randint(2, n)
        vs = rng.sample(range(1, n + 1), size)
        ints = [v if rng.random() < 0.5 else -v for v in vs]
        f = Formula(n)
        c = f.add_clause(ints)
        st = TrailState(n)
        # falsify every literal at a random level via decisions on other order
        order = list(c.lits)
        rng.shuffle(order)
        for x in order:
            st.enqueue_decision(x ^ 1)
        c1, c2 = c.lits[c.w0], c.lits[c.w1]
        prop = Propagator(f, st, "lscb", Stats())
        prop.init_watches()
        r = c.lits[prop._search_idx(c, c1, c2)]
        rest = [x for x in c.lits if x != c2]
        want = max(st.level[x >> 1] for x in rest)
        assert st.level[r >> 1] == want


def test_propagate_literal_records_mli_and_moves_watch():
    out = s1_replay("lscb")
    rig = out["rig"]
    f = rig.formula
    c3 = f.clauses[3]  # the ternary clause satisfied only out of order
    assert out["lazy_v2"] is c3
    assert out["lazy_level_v2"] == 1
    # its falsified watch moved off the implied-late literal
    watched = {lit_to_int(c3.lits[c3.w0]), lit_to_int(c3.lits[c3.w1])}
    assert watched == {2, -5}
    assert rig.stats.mli_detected == 1


def test_propagate_literal_conflict_on_pending_queue():
    out = s2_replay()
    rig = out["rig"]
    st = rig.state
    # make the two pending low-priority literals propagated by hand, then
    # drive the remaining queued literal directly
    st.pop_next()
    st.pop_next()
    confl = rig.prop.propagate_literal(lit(7))
    assert confl is rig.formula.clauses[4]
    assert all(st.value(x) == FALSE for x in confl.lits)


def test_propagate_literal_empty_watchlist_no_change():
    f, st, prop = make_rig(3, [[1, 2]])
    st.enqueue_decision(lit(3))
    trail_before = list(st.trail)
    assert prop.propagate_literal(lit(3)) is None
    assert st.trail == trail_before


def test_bcp_empty_queue_is_noop():
    f, st, prop = make_rig(3, [[1, 2]])
    assert prop.bcp() is None
    assert prop.stats.propagations == 0


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
            a, b = c.lits[c.w0], c.lits[c.w1]
            assert membership.pop((id(c), a)) == 1
            assert membership.pop((id(c), b)) == 1
        assert not membership


def test_deterministic_stats_for_fixed_seed_and_config():
    for mode in ("ncb", "wcb", "rscb", "lscb"):
        f = random_3sat(20, 91, 9)
        runs = []
        for _ in range(2):
            s = Solver(f.copy(), SolverConfig(mode=mode, cb_threshold=1))
            v = s.solve()
            runs.append((v.sat, s.stats.as_dict()))
        assert runs[0] == runs[1]


# Ternary watch visits, table-driven: every (w0, w1) pair with c1 in either
# slot, the third literal unassigned, true, or false below/at/above c1's
# level, and c2 unassigned, true below or above c1's level, or false, in
# both a classical and the lazy mode.  c1 is falsified at level 2.
C1_LEVEL = 2
THIRD_STATES = [None, ("true", 2), ("false", 1), ("false", 2), ("false", 3)]
C2_STATES = [None, ("true", 1), ("true", 3), ("false", 1)]


def ternary_case(mode, w0, w1, c1_slot, third, c2_state):
    """A watched ternary clause over variables 1..3 and a trail that falsifies
    c1 at level 2; variables 4..6 are the decisions that open levels 1..3.

    Returns (state, propagator, clause, c1, c2)."""
    f = Formula(6)
    clause = f.add_clause([1, 2, 3])
    clause.w0, clause.w1 = w0, w1
    lits = clause.lits
    c1 = lits[(w0, w1)[c1_slot]]
    c2 = lits[(w0, w1)[1 - c1_slot]]
    clause.search_pos = (w0, w1)[c1_slot]  # not the third slot, so a write shows
    st = TrailState(6)
    prop = Propagator(f, st, mode, Stats())
    prop.init_watches()
    wanted = [(c1 ^ 1, C1_LEVEL)]
    for x, state in ((lits[3 - w0 - w1], third), (c2, c2_state)):
        if state is not None:
            polarity, lvl = state
            wanted.append((x if polarity == "true" else x ^ 1, lvl))
    for lvl in (1, 2, 3):
        st.enqueue_decision(lit(3 + lvl))
        for x, at in wanted:
            if at == lvl:
                st.enqueue_implied(x, None, lvl)  # reasons play no part in a watch visit
    return st, prop, clause, c1, c2


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
        c2_true = st.value(c2) == TRUE
        slots = [clause.w0, clause.w1]
        search_pos = clause.search_pos
        trail = list(st.trail)
        conflict = mli = implied_at = None
        if not (c2_true and (mode != "lscb" or level[c2 >> 1] <= lvl_c1)):
            ridx = ref_prop._search_idx(ref, c1, c2)
            search_pos = ref.search_pos
            r = clause.lits[ridx]
            if r != c1:
                slots[slots.index(clause.lits.index(c1))] = ridx
            if r == c1:
                outcomes.add("keep")
            else:
                outcomes.add("move to false" if st.value(r) == FALSE else "move to free")
            if r == c1 or st.value(r) == FALSE:
                lvl_r = level[r >> 1]
                if st.value(c2) == FALSE:
                    conflict = clause
                    outcomes.add("conflict")
                elif not c2_true:
                    trail.append(c2)
                    implied_at = lvl_r
                    outcomes.add("unit")
                elif level[c2 >> 1] > lvl_r:
                    mli = clause
                    outcomes.add("mli")
        assert prop.propagate_literal(c1 ^ 1) is conflict, case
        assert [clause.w0, clause.w1] == slots, case
        assert clause.search_pos == search_pos, case
        assert st.trail == trail, case
        if implied_at is not None:
            assert level[c2 >> 1] == implied_at, case
        assert st.lazy_cl[c2 >> 1] is mli, case
        holders = sorted(x for x, bucket in enumerate(prop.wl) for c in bucket if c is clause)
        assert holders == sorted(clause.lits[k] for k in slots), case
    assert outcomes == {"keep", "move to false", "move to free", "conflict", "unit", "mli"}
