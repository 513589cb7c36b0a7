import random
from collections import Counter
from operator import setitem

import pytest

from lazysat.checker import Violation, check_ids
from lazysat.formula import Formula, lit_to_int
from lazysat.solver import Solver, SolverConfig
from lazysat.state import FALSE, INF, TRUE, UNDEF, TrailState
from lazysat.testkit import random_3sat
from support import (
    lit_from_int,
    s1_replay,
    s2_replay,
    state_hash,
    trail_positions,
    violations,
)


def test_wcb_replay_violates_strong_watches_only():
    out = s1_replay("wcb")
    rig = out["rig"]
    found4 = violations(rig.state, rig.formula, 4)
    assert found4, "the missed implication must show as a strong-watch violation"
    assert any(v.subject == "C3" for v in found4)
    # the weak form still holds on the same state
    assert violations(rig.state, rig.formula, 1) == []
    # and the basic trail invariants are untouched
    assert violations(rig.state, rig.formula, 2) == []
    assert violations(rig.state, rig.formula, 3) == []


def test_clause_and_violation_reprs():
    f = Formula(3)
    original = f.add_clause([1, -3, 2])
    learned = f.store([lit_from_int(-2), lit_from_int(3)], learned=True)
    assert repr(original) == "C0(1 -3 2)"
    assert repr(learned) == "L1(-2 3)"
    assert repr(Violation(4, "C0", "both watches false")) == "Violation(inv=4, C0: both watches false)"


def test_lscb_replay_keeps_lazy_invariants():
    # replay the scripted scenario up to the quiescent point after the
    # backtrack and reimplication (a pending conflict legitimately breaks
    # the clause invariants, hence the checker's quiescence precondition)
    from support import Rig, force_watch_order, s1_formula

    rig = Rig(s1_formula(), mode="lscb")
    rig.decide(1)
    rig.bcp()
    rig.decide(2)
    rig.bcp()
    rig.decide(3)
    learned = rig.analyze(rig.bcp(), 2)
    rig.backtrack(2)
    rig.install(learned)
    force_watch_order(rig.prop, -5, [5, 4])
    assert rig.bcp() is not None
    rig.backtrack(1)
    # the script omits the install step that would re-assert the conflict
    # clause, so only the trail-side invariants are due at this point; the
    # full solver path (which installs) is covered by the matrix soaks
    for inv in (1, 2, 3, 6):
        assert violations(rig.state, rig.formula, inv) == [], "invariant %d" % inv
    leftover = {v.subject for v in violations(rig.state, rig.formula, 4)}
    assert leftover == {"C4"}  # exactly the un-reasserted conflict clause


def test_check_is_side_effect_free():
    out = s1_replay("wcb")
    rig = out["rig"]
    before = state_hash(rig.state, rig.formula)
    check_ids(rig.state, rig.formula)
    assert state_hash(rig.state, rig.formula) == before


def test_inv5_violations_contain_inv7_violations():
    # any state satisfying the backward-compatible form satisfies the lazy
    # form; equivalently lazy violations are a subset of strict ones
    for mode in ("wcb", "rscb", "lscb"):
        for seed in range(6):
            f = random_3sat(14, 60, seed)
            s = Solver(f.copy(), SolverConfig(mode=mode, cb_threshold=1))
            s.solve()
            v5 = {(v.subject) for v in violations(s.state, s.formula, 5)}
            v7 = {(v.subject) for v in violations(s.state, s.formula, 7)}
            assert v7 <= v5


def test_inv4_implied_by_inv5_and_inv7():
    for mode in ("wcb", "lscb"):
        for seed in range(6):
            f = random_3sat(14, 60, seed)
            s = Solver(f.copy(), SolverConfig(mode=mode, cb_threshold=1))
            s.solve()
            v4 = {v.subject for v in violations(s.state, s.formula, 4)}
            v5 = {v.subject for v in violations(s.state, s.formula, 5)}
            v7 = {v.subject for v in violations(s.state, s.formula, 7)}
            assert v4 <= v5
            assert v4 <= v7


def test_random_ncb_soak_all_checkpoints_clean():
    for seed in range(30):
        f = random_3sat(12, 51, seed)
        s = Solver(f.copy(), SolverConfig(mode="ncb", check_level="coarse"))
        s.solve()
        assert not s.violations, s.violations


def test_inv6_catches_stale_cache():
    f = Formula(3)
    mli = f.add_clause([3, -1])
    st = TrailState(3)
    st.enqueue_decision(lit_from_int(1))
    st.enqueue_decision(lit_from_int(3))
    st.set_lazy(lit_from_int(3), mli, 1)
    assert violations(st, f, 6) == []
    st.lazy_lvl[3] = 0  # corrupt the cache
    assert violations(st, f, 6)


def _trail_state():
    """A quiescent trail: 1 decided, 2 implied by C0 at level 1, 3 decided at
    level 2 with the stored MLI C1 at level 1.  C2 and C3 hold the unassigned 4."""
    f = Formula(4)
    for ints in ([-1, 2], [3, -1], [2, 4], [3, 4]):
        f.add_clause(ints)
    st = TrailState(4, checked=True)
    st.enqueue_decision(lit_from_int(1))
    st.enqueue_implied(lit_from_int(2), f.clauses[0], 1)
    st.enqueue_decision(lit_from_int(3))
    st.set_lazy(lit_from_int(3), f.clauses[1], 1)
    st.head = len(st.trail)
    return st, f


@pytest.mark.parametrize(
    "inv, corrupt, expected",
    [
        (2, lambda st, c: setitem(st.reason, 2, None), "2: non-decision without reason"),
        (2, lambda st, c: setitem(st.reason, 2, c[1]), "2: reason lacks the implied literal"),
        (2, lambda st, c: setitem(st.reason, 2, c[2]), "2: reason literal 4 not falsified"),
        (3, lambda st, c: st.trail.reverse(), "2: reason literal -1 not before it"),
        (3, lambda st, c: setitem(st.reason, 2, c[2]), "2: reason literal 4 not before it"),
        (6, lambda st, c: setitem(st.lazy_cl, 4, c[1]), "-4: stored MLI on unassigned variable"),
        (6, lambda st, c: setitem(st.lazy_cl, 3, c[0]), "3: stored MLI lacks its literal"),
        (6, lambda st, c: setitem(st.lazy_cl, 3, c[3]), "3: stored MLI rest not falsified"),
        (6, lambda st, c: setitem(st.level, 3, 1), "3: stored MLI level 1 not below 1"),
        (6, lambda st, c: setitem(st.lazy_lvl, 3, 0), "3: cached MLI level 0 differs from 1"),
    ],
)
def test_trail_invariant_reports(inv, corrupt, expected):
    # one broken field per case, and exactly the one report it causes
    st, f = _trail_state()
    assert violations(st, f, 2, 3, 6) == []
    corrupt(st, f.clauses)
    subject, detail = expected.split(": ", 1)
    assert violations(st, f, inv) == [Violation(inv, subject, detail)]
    # and the checker's trail reports are the reference scan's, in order
    want = _reference_trail_scan(st)
    for ids in ((2,), (3,), (6,), (2, 3, 6)):
        got = violations(st, f, *ids)
        assert _triples(got) == [t for t in _triples(want) if t[0] in ids], ids


def test_trail_scan_reports_a_falsified_reason_without_its_literal():
    # the reason of 2 becomes {-1}: falsified and before 2 on the trail, yet
    # it lacks 2, so only the membership test can flag it
    st, f = _trail_state()
    st.reason[2] = f.add_clause([-1])
    want = [Violation(2, "2", "reason lacks the implied literal")]
    assert violations(st, f, 2, 3, 6) == want == _reference_trail_scan(st)


def _triples(violations):
    return [(v.invariant, v.subject, v.detail) for v in violations]


def _reference_trail_scan(state):
    """The unfiltered trail-invariant scan (ids 2, 3, 6), kept as an oracle.

    Every implied literal's reason is tested for 2 and for 3 on its own, and
    every stored MLI for 6, without first asking whether anything is wrong.
    """
    out = []
    val = state.val
    level = state.level
    pos = trail_positions(state)
    decisions = set(state.decisions)
    for lit in state.trail:
        if lit in decisions:
            continue
        v = lit >> 1
        who = str(lit_to_int(lit))
        reason = state.reason[v]
        if reason is None:
            out.append(Violation(2, who, "non-decision without reason"))
            continue
        rest = [x for x in reason.lits if x != lit]
        if lit not in reason.lits:
            out.append(Violation(2, who, "reason lacks the implied literal"))
        else:
            for x in rest:
                if val[x ^ 1] != TRUE:
                    detail = "reason literal %d not falsified" % lit_to_int(x)
                    out.append(Violation(2, who, detail))
        for x in rest:
            if val[x ^ 1] != TRUE or pos[x >> 1] > pos[v]:
                out.append(Violation(3, who, "reason literal %d not before it" % lit_to_int(x)))
    for v in range(1, state.num_vars + 1):
        mli = state.lazy_cl[v]
        if mli is None:
            continue
        lit = v << 1 if val[v << 1] == TRUE else (v << 1) | 1
        who = str(lit_to_int(lit))
        if val[lit] != TRUE:
            out.append(Violation(6, who, "stored MLI on unassigned variable"))
        elif lit not in mli.lits:
            out.append(Violation(6, who, "stored MLI lacks its literal"))
        elif any(val[x ^ 1] != TRUE for x in mli.lits if x != lit):
            out.append(Violation(6, who, "stored MLI rest not falsified"))
        else:
            residual = max((level[x >> 1] for x in mli.lits if x != lit), default=0)
            if residual >= level[v]:
                detail = "stored MLI level %s not below %s" % (residual, level[v])
                out.append(Violation(6, who, detail))
            if state.lazy_lvl[v] != residual:
                detail = "cached MLI level %s differs from %s" % (state.lazy_lvl[v], residual)
                out.append(Violation(6, who, detail))
    return out


def _reference_clause_scan(state, formula):
    """The straightforward clause-invariant scan (ids 1, 4, 5, 7), kept as an oracle.

    Every watch orientation whose first watch is falsified in the propagated
    prefix gets its detail built and each invariant tested on its own.
    """
    out = []
    val = state.val
    level = state.level
    pos = trail_positions(state)
    head = state.head
    for clause in formula.clauses:
        lits = clause.lits
        if len(lits) < 2:
            continue
        pair = (clause.w0, clause.w1)
        for c1, c2 in (pair, pair[::-1]):
            if not (val[c1 ^ 1] == TRUE and pos[c1 >> 1] < head):
                continue
            c2_sat = val[c2] == TRUE
            c2_tau_false = val[c2 ^ 1] == TRUE and pos[c2 >> 1] < head
            lvl1 = level[c1 >> 1]
            lvl2 = level[c2 >> 1]
            where = "C%d" % clause.index
            ctx = "c1=%d@%s c2=%d@%s" % (
                lit_to_int(c1),
                lvl1,
                lit_to_int(c2),
                lvl2 if val[c2] != UNDEF else "inf",
            )
            if c2_tau_false:
                out.append(Violation(1, where, "both watches falsified in prefix; " + ctx))
            if not c2_sat:
                out.append(Violation(4, where, "watch falsified, other not satisfied; " + ctx))
            if not (c2_sat and lvl2 <= lvl1):
                out.append(Violation(5, where, "other watch not satisfied at or below; " + ctx))
            mli = state.lazy_cl[c2 >> 1] if c2_sat else None
            residual = state.residual(mli.lits, c2)[0] if mli is not None else INF
            lazy_ok = c2_sat and (lvl2 <= lvl1 or residual <= lvl1)
            if not lazy_ok:
                out.append(Violation(7, where, "no low satisfaction nor stored MLI; " + ctx))
    return out


def _corrupt(state, formula, kind, rng):
    """Break one field of a live state in place, so that ``val``, ``trail``
    and positions, watches or the trail tables disagree; return a function
    that restores it, or None when the state has nothing to break that way."""
    val = state.val
    trail = state.trail
    if kind == "falsified off the trail":
        free = [v for v in range(1, state.num_vars + 1) if val[v << 1] == UNDEF]
        if not free:
            return None
        x = rng.choice(free) << 1 | rng.randrange(2)
        val[x] = FALSE
        val[x ^ 1] = TRUE
        state.level[x >> 1] = rng.randint(0, len(state.decisions))

        def undo():
            val[x] = val[x ^ 1] = UNDEF
            state.level[x >> 1] = INF

    elif kind == "duplicate trail entry":
        if not trail:
            return None
        p = rng.randint(0, len(trail))
        trail.insert(p, rng.choice(trail))

        def undo():
            del trail[p]

    elif kind == "watch on a falsified literal":
        moves = [
            (c, x)
            for c in formula.clauses
            for x in c.lits
            if val[x] == FALSE and x != c.w0 and x != c.w1
        ]
        if not moves:
            return None
        clause, x = rng.choice(moves)
        slot = rng.choice(("w0", "w1"))
        old = getattr(clause, slot)
        setattr(clause, slot, x)

        def undo():
            setattr(clause, slot, old)

    elif kind == "stale lazy_lvl":
        stored = [v for v in range(1, state.num_vars + 1) if state.lazy_cl[v] is not None]
        if not stored:
            return None
        v = rng.choice(stored)
        old = state.lazy_lvl[v]
        state.lazy_lvl[v] = old + rng.choice((-1, 1))

        def undo():
            state.lazy_lvl[v] = old

    else:
        assert kind == "cleared reason"
        implied = [lit >> 1 for lit in trail if state.reason[lit >> 1] is not None]
        if not implied:
            return None
        v = rng.choice(implied)
        old = state.reason[v]
        state.reason[v] = None

        def undo():
            state.reason[v] = old

    return undo


CORRUPTIONS = (
    "falsified off the trail",
    "duplicate trail entry",
    "watch on a falsified literal",
    "stale lazy_lvl",
    "cleared reason",
)


def _s2_state():
    """S2's out-of-order trail with a stored MLI on -3 and a pending queue."""
    rig = s2_replay()["rig"]
    return rig.state, rig.formula


def _matches_reference(state, formula, where):
    """The checker's reports, asserted equal to the reference scans' in order."""
    got = check_ids(state, formula)
    want = _reference_clause_scan(state, formula) + _reference_trail_scan(state)
    assert _triples(got) == _triples(want), where
    return got


def test_check_ids_matches_reference_scan():
    # the fast clause and trail scans must report exactly what the
    # straightforward ones do, in the same order, at every step of real
    # solves in every mode, and on each step's state with one field broken
    # (a seeded corruption per step, the kinds in turn)
    fired = set()
    fired_broken = set()  # a correct run never reports 1; a broken watch does
    changed = Counter()  # corruption kind -> states where it changed the report
    holding_mli = 0  # checkpoints of real solves with a stored MLI
    # (mode, analyze, variables, clauses, seeds); the 20-variable solves
    # never store an MLI, and the 50-variable lscb ones with analyze=1 do
    groups = [(mode, 2, 20, 86, range(6)) for mode in ("ncb", "wcb", "rscb", "lscb")]
    groups.append(("lscb", 1, 50, 218, (0, 2)))
    for mode, analyze, n, m, seeds in groups:
        for seed in seeds:
            # "False" keeps each run's corruptions as they were pinned when
            # these runs shared the loop with a second configuration
            rng = random.Random("%s False %d" % (mode, seed))
            # a trace, even one that drops its events, keeps each decision a
            # step of its own, so the states just after decisions are checked too
            s = Solver(
                random_3sat(n, m, seed),
                SolverConfig(mode=mode, analyze=analyze, cb_threshold=1),
                trace=lambda event: None,
            )
            assert s.setup() is None
            kind = "setup"
            steps = 0
            while True:
                where = (mode, analyze, n, seed, kind)
                got = _matches_reference(s.state, s.formula, where)
                fired.update(v.invariant for v in got)
                holding_mli += s.state.lazy_cl.count(None) < len(s.state.lazy_cl)
                broken = CORRUPTIONS[steps % len(CORRUPTIONS)]
                undo = _corrupt(s.state, s.formula, broken, rng)
                if undo is not None:
                    bad = _matches_reference(s.state, s.formula, where + (broken,))
                    fired_broken.update(v.invariant for v in bad)
                    changed[broken] += bad != got
                    undo()
                if kind in ("sat", "unsat"):
                    break
                kind = s.step()
                steps += 1
    assert {4, 5, 7} <= fired
    assert 1 in fired_broken
    assert holding_mli > 0
    # the scripted states, which hold an MLI, take every kind of corruption too
    rng = random.Random(0)
    for make in (_trail_state, _s2_state):
        for broken in CORRUPTIONS * 8:
            st, f = make()
            got = _matches_reference(st, f, broken)
            if _corrupt(st, f, broken, rng) is not None:
                changed[broken] += _matches_reference(st, f, broken) != got
    assert all(changed[k] for k in CORRUPTIONS), changed


def test_check_ids_reads_the_clauses_not_the_watch_lists():
    # every call scans formula.clauses: a violating clause that no watch
    # list holds is still reported
    rig = s1_replay("wcb")["rig"]
    want = check_ids(rig.state, rig.formula)
    c3 = rig.formula.clauses[3]
    assert any(v.subject == "C3" for v in want)
    for bucket in rig.prop.wl:
        while c3 in bucket:
            bucket.remove(c3)
    assert check_ids(rig.state, rig.formula) == want


def test_check_ids_keeps_nothing_between_calls():
    # a watch moved between two calls, with no watch list told, changes the
    # second report, and moving it back restores the first
    f = Formula(3)
    clause = f.add_clause([2, 3, -1])
    st = TrailState(3)
    st.enqueue_decision(lit_from_int(1))
    st.head = 1
    assert check_ids(st, f) == []
    clause.w1 = lit_from_int(-1)
    ctx = "c1=-1@1 c2=2@inf"
    assert _triples(check_ids(st, f)) == [
        (4, "C0", "watch falsified, other not satisfied; " + ctx),
        (5, "C0", "other watch not satisfied at or below; " + ctx),
        (7, "C0", "no low satisfaction nor stored MLI; " + ctx),
    ]
    clause.w1 = lit_from_int(3)
    assert check_ids(st, f) == []
