from lazysat.checker import ALL_INVARIANTS, Violation, check, check_ids, state_hash
from lazysat.formula import Formula, lit_from_int, lit_to_int
from lazysat.solver import Solver, SolverConfig
from lazysat.state import INF, TRUE, UNDEF, TrailState
from lazysat.testkit import random_3sat, s1_replay


def test_wcb_replay_violates_strong_watches_only():
    out = s1_replay("wcb")
    rig = out["rig"]
    found4 = check(rig.state, rig.formula, 4)
    assert found4, "the missed implication must show as a strong-watch violation"
    assert any(v.subject == "C3" for v in found4)
    # the weak form still holds on the same state
    assert check(rig.state, rig.formula, 1) == []
    # and the basic trail invariants are untouched
    assert check(rig.state, rig.formula, 2) == []
    assert check(rig.state, rig.formula, 3) == []


def test_lscb_replay_keeps_lazy_invariants():
    # replay the scripted scenario up to the quiescent point after the
    # backtrack and reimplication (a pending conflict legitimately breaks
    # the clause invariants, hence the checker's quiescence precondition)
    from lazysat.formula import lit_from_int
    from lazysat.testkit import Rig, force_watch_order, s1_formula

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
        assert check(rig.state, rig.formula, inv) == [], "invariant %d" % inv
    leftover = {v.subject for v in check(rig.state, rig.formula, 4)}
    assert leftover == {"C4"}  # exactly the un-reasserted conflict clause


def test_check_is_side_effect_free():
    out = s1_replay("wcb")
    rig = out["rig"]
    before = state_hash(rig.state, rig.formula)
    for inv in ALL_INVARIANTS:
        check(rig.state, rig.formula, inv)
    assert state_hash(rig.state, rig.formula) == before


def test_inv5_violations_contain_inv7_violations():
    # any state satisfying the backward-compatible form satisfies the lazy
    # form; equivalently lazy violations are a subset of strict ones
    for mode in ("wcb", "rscb", "lscb"):
        for seed in range(6):
            f = random_3sat(14, 60, seed)
            s = Solver(f.copy(), SolverConfig(mode=mode, cb_threshold=1))
            s.solve()
            v5 = {(v.subject) for v in check(s.state, s.formula, 5)}
            v7 = {(v.subject) for v in check(s.state, s.formula, 7)}
            assert v7 <= v5


def test_inv4_implied_by_inv5_and_inv7():
    for mode in ("wcb", "lscb"):
        for seed in range(6):
            f = random_3sat(14, 60, seed)
            s = Solver(f.copy(), SolverConfig(mode=mode, cb_threshold=1))
            s.solve()
            v4 = {v.subject for v in check(s.state, s.formula, 4)}
            v5 = {v.subject for v in check(s.state, s.formula, 5)}
            v7 = {v.subject for v in check(s.state, s.formula, 7)}
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
    st.set_lazy(lit_from_int(3), mli)
    assert check(st, f, 6) == []
    st.lazy_lvl[3] = 0  # corrupt the cache
    assert check(st, f, 6)


def test_inv8_checked_only_with_blockers():
    f = random_3sat(12, 51, 2)
    s = Solver(f.copy(), SolverConfig(mode="lscb", cb_threshold=1, blockers=True))
    s.solve()
    assert check_ids(s.state, s.formula, (8,), blockers=True) == []
    # without the flag the invariant is reported as not applicable
    assert check_ids(s.state, s.formula, (8,), blockers=False) == []


def test_check_ids_matches_individual_checks():
    out = s1_replay("wcb")
    rig = out["rig"]
    combined = check_ids(rig.state, rig.formula, ALL_INVARIANTS)
    singles = []
    for inv in ALL_INVARIANTS:
        singles.extend(check(rig.state, rig.formula, inv))
    assert sorted((v.invariant, v.subject) for v in combined) == sorted(
        (v.invariant, v.subject) for v in singles
    )


def _reference_clause_scan(state, formula, blockers):
    """The straightforward clause-invariant scan (ids 1, 4, 5, 7, 8), kept as an oracle.

    Every watch orientation whose first watch is falsified in the propagated
    prefix gets its detail built and each invariant tested on its own.
    """
    out = []
    clause_ids = [1, 4, 5, 7] + ([8] if blockers else [])
    val = state.val
    level = state.level
    pos = state.pos
    head = state.head
    for clause in formula.clauses:
        lits = clause.lits
        if len(lits) < 2:
            continue
        pair = (lits[clause.w0], lits[clause.w1])
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
    # the fast clause scan must report exactly what the straightforward one
    # does, in the same order, at every step of real solves in every mode
    def triples(violations):
        return [(v.invariant, v.subject, v.detail) for v in violations]

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
                    got = check_ids(s.state, s.formula, ALL_INVARIANTS, blockers=blockers)
                    want = _reference_clause_scan(s.state, s.formula, blockers) + check_ids(
                        s.state, s.formula, (2, 3, 6)
                    )
                    assert triples(got) == triples(want), (mode, blockers, seed, kind)
                    fired.update(v.invariant for v in got)
                    if kind in ("sat", "unsat"):
                        break
                    kind, _ = s.step()
    assert {1, 4, 5, 7, 8} <= fired
