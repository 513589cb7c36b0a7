"""Test-only rigs, replay fixtures and oracles; none of this ships in the package.

The two replay fixtures (S1, S2) drive the solver building blocks through a
pinned event script and expose snapshots for bit-exact assertions.
``reference_parse_dimacs`` is the line-then-clause DIMACS reader that the
one-pass ``parse_dimacs`` is checked against, and ``lit_from_int`` encodes
the signed literals that test scripts are written in.
"""

from __future__ import annotations

from lazysat.analyze import analyze as run_analysis
from lazysat.checker import check_ids
from lazysat.formula import DimacsError, Formula, lit_to_int
from lazysat.solver import Solver, SolverConfig
from lazysat.state import TRUE, backtrack
from lazysat.testkit import brute_force


# Invariant ids each mode guarantees at every checkpoint: the zero cells of
# the invariant matrix.
ZERO_IDS = {
    "ncb": (1, 2, 3, 4, 5, 7),
    "wcb": (1, 2, 3),
    "rscb": (1, 2, 3, 4, 6),
    "lscb": (1, 2, 3, 4, 6, 7),
}


def lit_from_int(n):
    """Encode a DIMACS-style signed literal, as ``parse_dimacs`` does."""
    v = -n if n < 0 else n
    return (v << 1) | (n < 0)


def solve_record(formula, cfg):
    """Solve a copy of the formula and return what the search fixes: the
    verdict, model, Stats, violations and learned clauses."""
    s = Solver(formula.copy(), cfg)
    verdict = s.solve()
    model = verdict.model or {}
    return {
        "sat": verdict.sat,
        "model": [model[v] for v in sorted(model)],
        "stats": s.stats.as_dict(),
        "violations": sorted(s.violations.items()),
        "learned": [c.lits for c in s.formula.clauses if c.learned],
    }


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


def reference_parse_dimacs(text):
    """DIMACS reader that collects each clause's signed literals and hands
    them to ``Formula.add_clause`` at its 0.

    It reads tokens with plain ``int`` and splits lines with ``splitlines``,
    so it agrees with ``parse_dimacs`` on ASCII text without underscores
    whose lines end in '\n' or '\r\n'.
    """
    formula = None
    pending = []
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "c":
            continue
        if line[0] == "%":
            break
        last_line = lineno
        if line[0] == "p":
            if formula is not None:
                raise DimacsError("duplicate 'p cnf' header", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError("malformed header %r" % line, lineno)
            try:
                nv = int(parts[2])
                nc = int(parts[3])
            except ValueError:
                raise DimacsError("malformed header %r" % line, lineno) from None
            if nv < 0 or nc < 0:
                raise DimacsError("malformed header %r" % line, lineno)
            formula = Formula(nv)
            continue
        if formula is None:
            raise DimacsError("clause data before 'p cnf' header", lineno)
        for tok in line.split():
            try:
                n = int(tok)
            except ValueError:
                raise DimacsError("non-integer token %r" % tok, lineno) from None
            if n == 0:
                formula.add_clause(pending)
                pending = []
            else:
                if abs(n) > formula.num_vars:
                    raise DimacsError(
                        "literal %d exceeds declared %d variables" % (n, formula.num_vars),
                        lineno,
                    )
                pending.append(n)
    if formula is None:
        raise DimacsError("missing 'p cnf' header", max(last_line, 1))
    if pending:
        raise DimacsError("missing terminating 0", last_line)
    return formula


# -- scripted replay rig -------------------------------------------------------


class Rig:
    """Hand-driven solver core for scripted replays and unit tests.

    Wraps a real :class:`Solver` that is set up but never stepped: the
    script drives its trail, propagator and installation step directly.
    No Rig formula has a unit clause, so ``setup`` only fills the watch
    lists.  The coarse check level therefore only turns on the trail's
    contract checks.
    """

    def __init__(self, formula, mode="lscb"):
        cfg = SolverConfig(mode=mode, cb_threshold=1, check_level="coarse")
        self.solver = Solver(formula, cfg)
        self.mode = mode
        self.formula = formula
        self.state = self.solver.state
        self.prop = self.solver.prop
        self.stats = self.solver.stats
        self.solver.setup()

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
        """Analyse a conflict clause from ``bcp`` by its literals."""
        return run_analysis(self.state, conflict.lits, strategy)

    def install(self, learned, stored=None):
        return self.solver.install_learned(learned, stored)

    def snapshot(self):
        st = self.state
        return {
            "trail": [lit_to_int(x) for x in st.trail],
            "levels": [st.level[x >> 1] for x in st.trail],
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


def s1_replay(mode="lscb"):
    """Scripted S1 run; returns the rig plus snapshots of every stage.

    Script: decide 1, 2, 3; the third decision conflicts; learn the binary
    clause {-3, -1}; go one level back (chronologically), which leaves the
    clause {2, 3, -5} satisfied only by the out-of-order literal 2; continue
    until the second conflict; then backtrack to level 1 without analysis
    and propagate again.
    """
    rig = Rig(s1_formula(), mode=mode)
    out = {"rig": rig}
    rig.decide(1)
    assert rig.bcp() is None
    rig.decide(2)
    assert rig.bcp() is None
    rig.decide(3)
    confl = rig.bcp()
    out["first_conflict"] = confl
    out["snap_first_conflict"] = rig.snapshot()
    learned = rig.analyze(confl)
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
    assert rig.state.val[lit_from_int(2)] == TRUE  # the MLI is stored on the satisfied polarity
    out["lazy_v2"] = rig.state.lazy_cl[2]
    out["lazy_level_v2"] = rig.state.lazy_lvl[2]
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
    f.store([lit_from_int(4), lit_from_int(2)], learned=True)  # c6, learned earlier in the script
    return f


def s2_replay():
    """Scripted S2 state: an out-of-order trail with a stored MLI on -3.

    The trail is assembled directly (the watch lists stay at their initial
    first-two assignment), the pending queue is propagated into the shown
    conflict, and both analysis strategies can be run from the result.
    """
    rig = Rig(s2_formula(), mode="lscb")
    c = rig.formula.clauses
    st = rig.state
    rig.decide(-1)
    st.head += 1
    rig.imply(-2, c[0], 1)
    st.head += 1
    rig.decide(-3)
    st.head += 1
    rig.imply(4, c[6], 1)
    st.head += 1
    st.set_lazy(lit_from_int(-3), c[5], 1)
    rig.imply(-5, c[1], 2)
    rig.imply(-6, c[2], 1)
    rig.imply(7, c[3], 2)
    out = {"rig": rig, "snap_trail": rig.snapshot()}
    confl = rig.bcp()
    out["conflict"] = confl
    out["snap_conflict"] = rig.snapshot()
    return out


def trail_positions(state):
    """Each variable's index on the trail, -1 when unassigned."""
    pos = [-1] * (state.num_vars + 1)
    for p, lit in enumerate(state.trail):
        pos[lit >> 1] = p
    return pos


def violations(state, formula, *ids):
    """The checker's reports on the given invariant ids, in its order."""
    return [v for v in check_ids(state, formula) if v.invariant in ids]


def state_hash(state, formula):
    """Order-sensitive digest of the live solver state, for purity checks."""
    clause_part = tuple(
        (c.index, c.w0, c.w1, c.search_pos, tuple(c.lits)) for c in formula.clauses
    )
    var_part = tuple(
        (
            state.level[v],
            state.reason[v].index if state.reason[v] is not None else -1,
            state.lazy_cl[v].index if state.lazy_cl[v] is not None else -1,
            state.lazy_lvl[v],
        )
        for v in range(1, state.num_vars + 1)
    )
    return hash((tuple(state.trail), state.head, tuple(state.decisions), var_part, clause_part))


class LockstepRunner:
    """Twin-run the two analysis strategies and compare installed clauses.

    Both solvers use lazy mode with purely chronological backtracking.  While
    the two solver states stay identical, the k-th conflict episodes
    correspond and must install the same clause, with strategy 1 paying at
    least as many conflicts per episode (its re-conflict loop).  Once the
    states diverge (reimplication batches can land in a different trail
    order), later episodes no longer correspond and the comparison stops.
    """

    def __init__(self, formula):
        self.solvers = []
        self._episode_lazy = False  # analysis resolved on a lazy reason this episode
        self._episode_learned = None  # the episode's last learned clause: the installed one
        for strategy in (1, 2):
            cfg = SolverConfig(mode="lscb", analyze=strategy, cb_threshold=1)
            solver = Solver(formula.copy(), cfg)
            solver.on_learn = self._on_learn
            self.solvers.append(solver)

    def _on_learn(self, solver, pre, post):
        if any(kind == "lazy" for _, kind in pre.steps):
            self._episode_lazy = True
        self._episode_learned = post

    def _machine_hash(self, solver):
        # the whole deterministic machine: trail state, clauses, and the
        # decision heuristic (re-conflict loops bump extra activity, which
        # sends later decisions elsewhere even when the trails agree)
        return hash(
            (
                state_hash(solver.state, solver.formula),
                tuple(solver.state.activity),
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
        before = solver.stats.conflicts
        while True:
            kind = solver.step()
            if kind in ("sat", "unsat"):
                return (kind, None, 0, False)
            if kind == "learn":
                conflicts = solver.stats.conflicts - before
                installed = self._episode_learned.lits
                return ("learn", installed, conflicts, self._episode_lazy or conflicts > 1)

    def run(self):
        s1, s2 = self.solvers
        out = {"mismatches": [], "synced_episodes": 0, "conflicts1": 0, "conflicts2": 0}
        v1 = s1.setup()
        v2 = s2.setup()
        assert (v1 is None) == (v2 is None)
        if v1 is not None:
            return out
        while True:
            kind1, installed1, conf1, lazy1 = self._next_episode(s1)
            kind2, installed2, conf2, lazy2 = self._next_episode(s2)
            if kind1 != "learn" or kind2 != "learn":
                if kind1 != "learn" and kind2 != "learn":
                    assert kind1 == kind2, "lockstep runs disagree on the verdict"
                break  # both finished, or one run finished first
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
                    break
                out["mismatches"].append(
                    (sorted(map(lit_to_int, installed1)), sorted(map(lit_to_int, installed2)))
                )
            if self._machine_hash(s1) != self._machine_hash(s2):
                break
        return out


def replay_trace(events):
    """Reference interpreter: reconstruct (trail, head) from a trace stream.

    Every event kind the solver emits has a branch; an unknown one raises ValueError.
    """
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
        elif kind in ("set_lazy", "conflict", "resolve", "learn", "result"):
            pass  # learn follows its own imply event
        else:
            raise ValueError("unknown trace event kind %r" % kind)
    return trail, head
