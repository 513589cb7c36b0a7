"""Test instrumentation: brute-force oracles, random instances, scripted replays.

The oracle is an independent code path sharing only the Formula type with
the solver, so differential tests really compare two implementations.  The
two replay fixtures (S1, S2) drive the solver building blocks through a
pinned event script and expose snapshots for bit-exact assertions.
"""

from __future__ import annotations

import os
import random

from .analyze import analyze as run_analysis
from .backtrack import backtrack
from .checker import state_hash
from .formula import Formula, lit_from_int, lit_to_int, parse_dimacs
from .solver import Solver, SolverConfig, Verdict

# SATLIB uniform random 3-SAT family sizes (clauses per variable count).
SATLIB_COUNTS = {
    20: 91,
    50: 218,
    75: 325,
    100: 430,
    125: 538,
    150: 645,
    175: 753,
    200: 860,
    225: 960,
    250: 1065,
}


def satlib_clause_count(n):
    """Clause count for n-variable uniform random 3-SAT, SATLIB convention."""
    return SATLIB_COUNTS.get(n, round(4.26 * n))


def random_3sat(n, m, seed):
    """m clauses of 3 distinct, non-complementary literals over n >= 3 variables."""
    if n < 3:
        raise ValueError("random 3-SAT needs at least 3 variables, got %d" % n)
    if m < 0:
        raise ValueError("random 3-SAT needs a clause count of at least 0, got %d" % m)
    rng = random.Random(seed)
    formula = Formula(n)
    for _ in range(m):
        vs = []
        while len(vs) < 3:
            v = rng.randrange(1, n + 1)
            if v not in vs:
                vs.append(v)
        clause = [-v if rng.randrange(2) else v for v in vs]
        formula.add_clause(clause)
    return formula


# -- brute-force oracle ------------------------------------------------------


def brute_force(formula):
    """Exact satisfiability by plain DPLL (no learning, no watches).

    Counter-based unit propagation over occurrence lists: assigning a
    literal queues every clause it leaves with one free literal and none
    satisfied, and propagation works through only those.  Branches on the
    first unassigned literal of the first unsatisfied clause.
    """
    if formula.trivially_unsat:
        return False
    n = formula.num_vars
    if n > 64:
        raise ValueError("instance too large for the brute-force oracle")
    clauses = [c.to_ints() for c in formula.clauses]
    occ_pos = [[] for _ in range(n + 1)]
    occ_neg = [[] for _ in range(n + 1)]
    for ci, c in enumerate(clauses):
        for x in c:
            (occ_pos if x > 0 else occ_neg)[abs(x)].append(ci)
    free = [len(c) for c in clauses]  # non-falsified literal counts
    nsat = [0] * len(clauses)  # satisfying assignment counts
    assign = [0] * (n + 1)  # 0 unassigned, +1 true, -1 false
    units = []  # clauses that became unit since the last fixpoint; rechecked when popped

    def set_lit(x, trail):
        v = abs(x)
        assign[v] = 1 if x > 0 else -1
        trail.append(x)
        sat_occ, false_occ = (occ_pos, occ_neg) if x > 0 else (occ_neg, occ_pos)
        for ci in sat_occ[v]:
            nsat[ci] += 1
        conflict = False
        for ci in false_occ[v]:
            free[ci] -= 1
            if nsat[ci] == 0:
                if free[ci] == 0:
                    conflict = True
                elif free[ci] == 1:
                    units.append(ci)
        return conflict

    def undo(trail, mark):
        # undo runs only on the way back to a propagated state, which has no unit clause
        units.clear()
        while len(trail) > mark:
            x = trail.pop()
            v = abs(x)
            assign[v] = 0
            sat_occ, false_occ = (occ_pos, occ_neg) if x > 0 else (occ_neg, occ_pos)
            for ci in sat_occ[v]:
                nsat[ci] -= 1
            for ci in false_occ[v]:
                free[ci] += 1

    def propagate(trail):
        while units:
            ci = units.pop()
            if nsat[ci] or free[ci] != 1:
                continue
            for x in clauses[ci]:
                if assign[abs(x)] == 0:
                    if set_lit(x, trail):
                        return True
                    break
        return False

    def pick():
        for ci, c in enumerate(clauses):
            if nsat[ci] == 0:
                for x in c:
                    if assign[abs(x)] == 0:
                        return x
        for v in range(1, n + 1):
            if assign[v] == 0:
                return v
        return 0

    def search():
        trail = []
        if propagate(trail):
            undo(trail, 0)
            return False
        x = pick()
        if x == 0:
            undo(trail, 0)
            return True
        for branch in (x, -x):
            mark = len(trail)
            if not set_lit(branch, trail) and search():
                undo(trail, 0)
                return True
            undo(trail, mark)
        undo(trail, 0)
        return False

    # Seed with unit clauses before any branching.
    trail = []
    for ci, c in enumerate(clauses):
        if len(c) == 1 and assign[abs(c[0])] == 0:
            if set_lit(c[0], trail):
                return False
    if propagate(trail):
        return False
    return search()


def truth_table_sat(formula):
    """Exhaustive enumeration, for cross-checking the DPLL oracle on tiny inputs."""
    n = formula.num_vars
    if n > 22:
        raise ValueError("instance too large for truth-table enumeration")
    if formula.trivially_unsat:
        return False
    clauses = [c.to_ints() for c in formula.clauses]
    for mask in range(1 << n):
        ok = True
        for c in clauses:
            if not any((mask >> (abs(x) - 1)) & 1 == (x > 0) for x in c):
                ok = False
                break
        if ok:
            return True
    return False


def entails(formula, clause_ints):
    """True iff every model of the formula satisfies the clause (refutation check)."""
    if formula.num_vars > 26:
        raise ValueError("instance too large for the entailment oracle")
    probe = Formula(formula.num_vars)
    for c in formula.clauses:
        probe.add_clause(c.to_ints())
    for x in clause_ints:
        probe.add_clause([-x])
    return not brute_force(probe)


def load_dimacs_dir(path):
    """All .cnf files under a directory, sorted by name."""
    out = []
    for name in sorted(os.listdir(path)):
        if name.endswith(".cnf"):
            with open(os.path.join(path, name)) as fh:
                out.append((name, parse_dimacs(fh.read())))
    return out


# -- scripted replay rig -------------------------------------------------------


class Rig:
    """Hand-driven solver core for scripted replays and unit tests.

    Wraps a real :class:`Solver` whose main loop never runs: the script
    drives its trail, propagator and installation step directly.  The
    coarse check level therefore only turns on the trail's contract checks.
    """

    def __init__(self, formula, mode="lscb", checked=True, trace=None):
        cfg = SolverConfig(mode=mode, cb_threshold=1, check_level="coarse" if checked else "off")
        self.solver = Solver(formula, cfg, trace=trace)
        self.mode = mode
        self.formula = formula
        self.state = self.solver.state
        self.prop = self.solver.prop
        self.stats = self.solver.stats
        self.prop.init_watches()

    def decide(self, n):
        self.state.enqueue_decision(lit_from_int(n))
        self.stats.decisions += 1

    def imply(self, n, clause, level):
        self.state.enqueue_implied(lit_from_int(n), clause, level)

    def bcp(self):
        return self.prop.bcp()

    def backtrack(self, d):
        backtrack(self.state, d, self.mode, self.stats)

    def analyze(self, conflict, strategy=2):
        return run_analysis(self.state, conflict, strategy)

    def install(self, learned):
        return self.solver.install_learned(learned)

    def snapshot(self):
        st = self.state
        return {
            "trail": st.trail_ints(),
            "levels": [st.level[abs(i)] for i in st.trail_ints()],
            "reasons": [
                st.reason[x >> 1].index if st.reason[x >> 1] is not None else None
                for x in st.trail
            ],
            "head": st.head,
        }


def force_watch_order(prop, lit_int, clause_indices):
    """Reorder one watch bucket so the given clause indices come first.

    Replay scripts use this to pin a visit order the plain append policy
    would not produce; the listed clauses must already be in the bucket.
    """
    bucket = prop.wl[lit_from_int(lit_int)]
    by_index = {c.index: c for c in bucket}
    assert all(i in by_index for i in clause_indices), "clause not watching this literal"
    front = [by_index[i] for i in clause_indices]
    rest = [c for c in bucket if c.index not in set(clause_indices)]
    bucket[:] = front + rest


# -- fixture S1: missed lower implication across a chronological backtrack ------


def s1_formula():
    """Six-variable clause set whose chronological run records an MLI on v2."""
    f = Formula(6)
    f.add_clause([-3, 4])  # c0
    f.add_clause([-3, -4, -1])  # c1
    f.add_clause([5, 3])  # c2
    f.add_clause([2, 3, -5])  # c3
    f.add_clause([6, -5, 3])  # c4
    f.add_clause([-6, -2, -5])  # c5
    return f


def s1_replay(mode="lscb", strategy=2, trace=None):
    """Scripted S1 run; returns the rig plus snapshots of every stage.

    Script: decide 1, 2, 3; the third decision conflicts; learn the binary
    clause {-3, -1}; go one level back (chronologically), which leaves the
    clause {2, 3, -5} satisfied only by the out-of-order literal 2; continue
    until the second conflict; then backtrack to level 1 without analysis
    and propagate again.
    """
    rig = Rig(s1_formula(), mode=mode, trace=trace)
    out = {"rig": rig}
    rig.decide(1)
    assert rig.bcp() is None
    rig.decide(2)
    assert rig.bcp() is None
    rig.decide(3)
    confl = rig.bcp()
    out["first_conflict"] = confl
    out["snap_first_conflict"] = rig.snapshot()
    learned = rig.analyze(confl, strategy)
    out["learned1"] = learned
    rig.backtrack(2)
    rig.install(learned)
    out["snap_after_install"] = rig.snapshot()
    # Pin the visit order of the bucket both pending clauses sit in, so the
    # ternary clause implies -6 before the conflict shows.
    force_watch_order(rig.prop, -5, [5, 4])
    confl2 = rig.bcp()
    out["second_conflict"] = confl2
    out["snap_second_conflict"] = rig.snapshot()
    out["lazy_v2"] = rig.state.lazy(lit_from_int(2))
    out["lazy_level_v2"] = rig.state.lazy_level(lit_from_int(2))
    rig.backtrack(1)
    out["snap_after_backtrack1"] = rig.snapshot()
    confl3 = rig.bcp()
    out["third_conflict"] = confl3
    out["snap_third_conflict"] = rig.snapshot()
    return out


# -- fixture S2: lazy reason folded into conflict analysis ----------------------


def s2_formula():
    """Seven-variable clause set for the analysis replay; the last clause is learned."""
    f = Formula(7)
    f.add_clause([-2, 1])  # c0
    f.add_clause([-5, 3, -4])  # c1
    f.add_clause([-6, 2, -4])  # c2
    f.add_clause([7, 5, 3])  # c3
    f.add_clause([5, -7, 6])  # c4
    f.add_clause([-3, -4, 2])  # c5
    f.add_clause([4, 2], learned=True)  # c6, learned earlier in the scripted history
    return f


def s2_replay(trace=None):
    """Scripted S2 state: an out-of-order trail with a stored MLI on -3.

    The trail is assembled directly (the watch lists stay at their initial
    first-two assignment), the pending queue is propagated into the shown
    conflict, and both analysis strategies can be run from the result.
    """
    rig = Rig(s2_formula(), mode="lscb", trace=trace)
    c = rig.formula.clauses
    st = rig.state
    rig.decide(-1)
    st.pop_next()
    rig.imply(-2, c[0], 1)
    st.pop_next()
    rig.decide(-3)
    st.pop_next()
    rig.imply(4, c[6], 1)
    st.pop_next()
    st.set_lazy(lit_from_int(-3), c[5])
    rig.imply(-5, c[1], 2)
    rig.imply(-6, c[2], 1)
    rig.imply(7, c[3], 2)
    out = {"rig": rig, "snap_trail": rig.snapshot()}
    confl = rig.bcp()
    out["conflict"] = confl
    out["snap_conflict"] = rig.snapshot()
    return out


class LockstepRunner:
    """Twin-run the two analysis strategies and compare installed clauses.

    Both solvers use lazy mode with purely chronological backtracking.  While
    the two solver states stay identical, the k-th conflict episodes
    correspond and must install the same clause, with strategy 1 paying at
    least as many conflicts per episode (its re-conflict loop).  Once the
    states diverge (reimplication batches can land in a different trail
    order), later episodes no longer correspond and the comparison stops.
    """

    def __init__(self, formula, vsids_decay=0.95):
        self.solvers = []
        self._episode_lazy = False  # analysis resolved on a lazy reason this episode
        for strategy in (1, 2):
            cfg = SolverConfig(
                mode="lscb", analyze=strategy, cb_threshold=1, vsids_decay=vsids_decay
            )
            solver = Solver(formula.copy(), cfg)
            solver.on_learn = self._on_learn
            self.solvers.append(solver)

    def _on_learn(self, solver, pre, post):
        if any(kind == "lazy" for _, kind in pre.steps):
            self._episode_lazy = True

    def _machine_hash(self, solver):
        # the whole deterministic machine: trail state, clauses, and the
        # decision heuristic (re-conflict loops bump extra activity, which
        # sends later decisions elsewhere even when the trails agree)
        return hash(
            (
                state_hash(solver.state, solver.formula),
                tuple(solver.activity),
                solver.var_inc,
            )
        )

    def _next_episode(self, solver):
        """Run until the next conflict episode completes.

        Returns (kind, installed clause, conflicts, lazy engaged).  An
        episode of more than one conflict ran the re-conflict loop, which
        counts as lazy engagement.
        """
        self._episode_lazy = False
        while True:
            kind, payload = solver.step()
            if kind in ("sat", "unsat"):
                solver.verdict = Verdict(kind == "sat", payload)
                return (kind, None, 0, False)
            if kind == "learn":
                installed, conflicts = payload
                return ("learn", installed, conflicts, self._episode_lazy or conflicts > 1)

    def run(self):
        s1, s2 = self.solvers
        out = {
            "mismatches": [],
            "synced_episodes": 0,
            "conflicts1": 0,
            "conflicts2": 0,
            "diverged": False,
        }
        v1 = s1.setup()
        v2 = s2.setup()
        assert (v1 is None) == (v2 is None)
        if v1 is not None:
            out["verdicts"] = (v1.sat, v2.sat)
            return out
        while True:
            kind1, installed1, conf1, lazy1 = self._next_episode(s1)
            kind2, installed2, conf2, lazy2 = self._next_episode(s2)
            if kind1 != "learn" or kind2 != "learn":
                sat1 = kind1 == "sat" if kind1 != "learn" else None
                sat2 = kind2 == "sat" if kind2 != "learn" else None
                if sat1 is not None and sat2 is not None:
                    assert sat1 == sat2, "lockstep runs disagree on the verdict"
                    out["verdicts"] = (sat1, sat2)
                else:
                    out["diverged"] = True  # one run finished first
                break
            out["synced_episodes"] += 1
            out["conflicts1"] += conf1
            out["conflicts2"] += conf2
            if conf1 < conf2:
                out["mismatches"].append(("conflicts", conf1, conf2))
            if sorted(installed1) != sorted(installed2):
                if lazy1 or lazy2:
                    # Lazy reasons drove the two strategies through different
                    # (individually sound) resolutions; the machines have
                    # diverged, so later conflicts no longer correspond.
                    out["undefined_episodes"] = out.get("undefined_episodes", 0) + 1
                    out["diverged"] = True
                    break
                out["mismatches"].append(
                    (sorted(map(lit_to_int, installed1)), sorted(map(lit_to_int, installed2)))
                )
            if self._machine_hash(s1) != self._machine_hash(s2):
                out["diverged"] = True
                break
        # finish both runs independently for total conflict counts
        for solver in (s1, s2):
            if solver.verdict is None:
                while True:
                    kind, _ = solver.step()
                    if kind in ("sat", "unsat"):
                        solver.verdict = Verdict(kind == "sat")
                        break
        out["total_conflicts"] = (s1.stats.conflicts, s2.stats.conflicts)
        return out


def replay_trace(events):
    """Reference interpreter: reconstruct (trail, head) from a trace stream."""
    trail = []  # (signed literal, level)
    head = 0
    for e in events:
        kind = e["kind"]
        if kind in ("decide", "imply", "reimply"):
            trail.append((e["lit"], e["level"]))
        elif kind == "pop":
            assert trail[head][0] == e["lit"]
            head += 1
        elif kind == "backtrack":
            trail = [t for t in trail if t[1] <= e["to"]]
            head = e["head"]
        elif kind == "restart":
            pass
    return trail, head
