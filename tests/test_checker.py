from operator import setitem

import pytest

from lazysat.checker import Violation, check_ids
from lazysat.formula import Formula, lit_from_int, lit_to_int
from lazysat.solver import Solver, SolverConfig
from lazysat.state import INF, TRUE, UNDEF, TrailState
from lazysat.testkit import random_3sat
from support import s1_replay, state_hash, trail_positions, violations


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


def test_lscb_replay_keeps_lazy_invariants():
    # replay the scripted scenario up to the quiescent point after the
    # backtrack and reimplication (a pending conflict legitimately breaks
    # the clause invariants, hence the checker's quiescence precondition)
    from lazysat.formula import lit_from_int
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
        s = Solver(f.copy(), SolverConfig(mode="ncb", check_level="fine"))
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


def test_inv8_checked_only_with_blockers():
    # invariant 8 applies only to a clause whose blocker is set: the wcb
    # replay maintains none, so its inv-7 violations have no inv-8 twin
    rig = s1_replay("wcb")["rig"]
    assert violations(rig.state, rig.formula, 7)
    assert violations(rig.state, rig.formula, 8) == []
    f = random_3sat(12, 51, 2)
    s = Solver(f.copy(), SolverConfig(mode="lscb", cb_threshold=1, blockers=True))
    assert s.solve().sat
    assert violations(s.state, s.formula, 8) == []


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


def _reference_clause_scan(state, formula, blockers):
    """The straightforward clause-invariant scan (ids 1, 4, 5, 7, 8), kept as an oracle.

    Every watch orientation whose first watch is falsified in the propagated
    prefix gets its detail built and each invariant tested on its own.
    """
    out = []
    clause_ids = [1, 4, 5, 7] + ([8] if blockers else [])
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
            if 1 in clause_ids and c2_tau_false:
                out.append(Violation(1, where, "both watches falsified in prefix; " + ctx))
            if 4 in clause_ids and not c2_sat:
                out.append(Violation(4, where, "watch falsified, other not satisfied; " + ctx))
            if 5 in clause_ids and not (c2_sat and lvl2 <= lvl1):
                out.append(Violation(5, where, "other watch not satisfied at or below; " + ctx))
            mli = state.lazy_cl[c2 >> 1] if c2_sat else None
            residual = state.residual_level(mli.lits, c2) if mli is not None else INF
            lazy_ok = c2_sat and (lvl2 <= lvl1 or residual <= lvl1)
            if 7 in clause_ids and not lazy_ok:
                out.append(Violation(7, where, "no low satisfaction nor stored MLI; " + ctx))
            if 8 in clause_ids:
                b = clause.blocker
                b_ok = b != 0 and val[b] == TRUE and level[b >> 1] <= lvl1
                if not (lazy_ok or b_ok):
                    out.append(Violation(8, where, "neither MLI cover nor blocker; " + ctx))
    return out


def test_check_ids_matches_reference_scan():
    # the fast clause and trail scans must report exactly what the
    # straightforward ones do, in the same order, at every step of real
    # solves in every mode
    fired = set()
    for mode in ("ncb", "wcb", "rscb", "lscb"):
        for blockers in (False, True):
            for seed in range(6):
                s = Solver(
                    random_3sat(20, 86, seed),
                    SolverConfig(mode=mode, cb_threshold=1, blockers=blockers),
                )
                assert s.setup() is None
                kind = "setup"
                while True:
                    got = check_ids(s.state, s.formula)
                    want = _reference_clause_scan(
                        s.state, s.formula, blockers
                    ) + _reference_trail_scan(s.state)
                    assert _triples(got) == _triples(want), (mode, blockers, seed, kind)
                    fired.update(v.invariant for v in got)
                    if kind in ("sat", "unsat"):
                        break
                    kind = s.step()
    assert {1, 4, 5, 7, 8} <= fired
