"""The CDCL main loop: decisions, propagation and conflict handling.

One solver instance owns one formula, one trail, and one watch structure;
instances are independent.  All behaviour is deterministic for a fixed
configuration: VSIDS ties break toward the lowest variable index and no
randomness enters the search.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import heappop

from . import checker
from .analyze import analyze as run_analysis
from .analyze import minimize as minimize_clause
from .formula import Formula, lit_to_int
from .propagate import Propagator
from .state import FALSE, TRUE, UNDEF, TrailState
from .state import backtrack as run_backtrack

MODES = ("ncb", "wcb", "rscb", "lscb")
CHECK_LEVELS = ("off", "coarse")

VSIDS_BUMP = 1.0
VSIDS_DECAY = 0.95  # the bump grows by 1/VSIDS_DECAY per conflict
VSIDS_RESCALE = 1e100


@dataclass
class SolverConfig:
    mode: str = "lscb"
    analyze: int = 2
    cb_threshold: int = 100
    minimize: bool = False
    check_level: str = "off"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError("unknown mode %r" % self.mode)
        if self.analyze not in (1, 2):
            raise ValueError("analyze strategy must be 1 or 2")
        if self.cb_threshold < 1:
            raise ValueError("cb_threshold must be >= 1")
        if self.check_level not in CHECK_LEVELS:
            raise ValueError("unknown check level %r" % self.check_level)


@dataclass
class Stats:
    """Search counters.  ``SEARCH`` names those the search fixes, in output
    order; ``as_dict`` (so ``SEARCH_SHA256``) and ``solve --stats`` read only it."""

    propagations: int = 0
    decisions: int = 0
    conflicts: int = 0
    learned: int = 0
    reimplications: int = 0
    mli_detected: int = 0

    SEARCH = FIELDS = (  # FIELDS: the name perfbench reads
        "propagations", "decisions", "conflicts", "learned", "reimplications", "mli_detected"
    )

    def as_dict(self):
        return {name: getattr(self, name) for name in self.SEARCH}


@dataclass
class Verdict:
    sat: bool
    model: dict | None = None  # variable -> bool, total on SAT


def choose_backtrack_level(learned, cfg):
    """Destination level for a conflict at learned.level.

    Non-chronological mode always backjumps to the second level.  The
    chronological modes go one level back instead whenever the jump would
    span at least cb_threshold levels, so a threshold of 1 is purely
    chronological.
    """
    if cfg.mode == "ncb":
        return learned.second_level
    gap = (learned.level - 1) - learned.second_level
    if gap >= cfg.cb_threshold:
        return learned.level - 1
    return learned.second_level


class Solver:
    def __init__(self, formula: Formula, cfg: SolverConfig | None = None, trace=None):
        self.formula = formula
        self.cfg = cfg or SolverConfig()
        self.stats = Stats()
        checked = self.cfg.check_level != "off"
        self.state = TrailState(formula.num_vars, checked=checked, trace=trace)
        self.prop = Propagator(formula, self.state, self.cfg.mode, self.stats)
        self.var_inc = VSIDS_BUMP
        self.violations = Counter()  # invariant id -> reports summed over checkpoints
        self.on_learn = None  # callback(solver, pre_minimize, post_minimize)
        self._set_up = False  # set by setup(), which begins the one run

    # -- small hooks -------------------------------------------------------

    def _checkpoint(self):
        """Count the checker's reports: ``coarse`` checks after each
        conflict-free propagation and after each learned-clause install.  No
        check follows a decision: its pending literal, at a new top level,
        breaks no invariant, so that check could report no (invariant,
        subject) pair that the one before missed.  A checked run is hooked,
        so ``bcp`` leaves decisions to ``step()``, and each conflict-free
        propagation still ends at a checkpoint."""
        if self.cfg.check_level == "off":
            return
        for v in checker.check_ids(self.state, self.formula):
            self.violations[v.invariant] += 1

    # -- decisions ---------------------------------------------------------

    def decide(self):
        """Unassigned literal of maximal activity, lowest index on ties,
        polarity from phase saving (initially negative).

        The heap serves first.  Its top entry, once current and unassigned,
        is the answer: a zero-activity entry sorts after every positive one,
        and its variable lies below ``cursor``, so below every variable the
        index tier can reach.  With the heap drained, no unassigned variable
        has positive activity, and the answer is the first unassigned one at
        or after ``cursor``, which then moves up to it.
        """
        st = self.state
        val = st.val
        if len(st.heap) > 2 * st.num_vars:  # so stale entries cannot pile up
            st.rebuild_heap()
        heap = st.heap
        queued = st.queued
        activity = st.activity
        while heap:
            # Drop assigned variables off the top; the entry left on top is
            # current, so the decision stays queued until it is popped.
            key, v = heap[0]
            if val[v << 1] == UNDEF:
                return (v << 1) | st.saved_phase[v]
            heappop(heap)
            if key == -activity[v]:
                queued[v] = False
        v = st.cursor
        n = st.num_vars
        while v <= n and (val[v << 1] != UNDEF or activity[v]):
            v += 1
        if v > n:
            raise AssertionError(
                "no unassigned variable in the heap or at or after the cursor (rebuild_heap)"
            )
        st.cursor = v
        return (v << 1) | st.saved_phase[v]

    def _bump_clause(self, lits):
        inc = self.var_inc
        activity = self.state.activity
        queued = self.state.queued
        rescaled = False
        for x in lits:
            v = x >> 1
            activity[v] += inc
            if activity[v] > VSIDS_RESCALE:
                rescaled = True
            queued[v] = False  # assigned until the backtrack, which requeues it
        if rescaled:
            for v in range(1, self.formula.num_vars + 1):
                activity[v] *= 1.0 / VSIDS_RESCALE
            self.var_inc *= 1.0 / VSIDS_RESCALE
            self.state.rebuild_heap()
        self.var_inc /= VSIDS_DECAY

    # -- learned clause installation ----------------------------------------

    def install_learned(self, learned, stored):
        """Store the learned clause, watch it, and enqueue its asserting literal.

        The clause is watched at its asserting literal and at
        ``learned.second``, a literal of its second level, so that the watch
        pair shows the clause level.  ``stored``, the stored clause with
        these literals or None, is not re-added; its watches are repointed.
        """
        st = self.state
        lit = learned.asserting
        assert st.val[lit] == UNDEF, "asserting literal must be unassigned after backtracking"
        if stored is not None:
            # a conflict from BCP, so a watched clause of at least two literals
            clause = stored
            self.prop.rewatch(clause, lit, learned.second)
        else:
            clause = self.formula.store(learned.lits, learned=True)
            self.stats.learned += 1
            if len(learned.lits) > 1:
                self.prop.watch(clause, lit, learned.second)
        st.enqueue_implied(lit, clause, learned.second_level)
        if st.trace is not None:
            st.trace(
                {
                    "kind": "learn",
                    "clause": clause.index,
                    "lits": [lit_to_int(x) for x in learned.lits],
                    "level": learned.second_level,
                }
            )
        return clause

    # -- main loop -----------------------------------------------------------

    def solve(self) -> Verdict:
        kind = self.setup()
        while kind not in ("sat", "unsat"):
            kind = self.step()
        verdict = Verdict(True, self._model()) if kind == "sat" else Verdict(False)
        if self.state.trace is not None:
            self.state.trace({"kind": "result", "sat": verdict.sat})
        return verdict

    def setup(self):
        """Start the one run (RuntimeError if it has started): fill watch lists
        and seed root units; return "unsat" if that refutes the formula, else None."""
        if self._set_up:
            raise RuntimeError("a solver instance runs once")
        self._set_up = True
        st = self.state
        if self.formula.trivially_unsat:
            return "unsat"
        for unit in self.prop.init_watches():
            lit = unit.lits[0]
            if st.val[lit] == FALSE:
                return "unsat"
            if st.val[lit] == UNDEF:
                st.enqueue_implied(lit, unit, 0)
        return None

    def step(self):
        """One macro step of the main loop: propagate, then act on the result.

        Returns its kind: "sat" (every variable is assigned), "unsat",
        "decide" or "learn" (a conflict episode installed a clause).  In an
        unchecked, untraced run ``bcp`` makes the decisions itself, so a
        step runs decisions and propagation up to a conflict episode or a
        verdict and never returns "decide"; with checked asserts or a trace
        each decision is a step of its own, made here.  Raises RuntimeError
        before ``setup()`` has run."""
        if not self._set_up:
            raise RuntimeError("step() before setup()")
        st = self.state
        # looked up per call, so a wrapper of decide sees every decision
        conflict = self.prop.bcp(self.decide)
        if conflict is None:
            self._checkpoint()
            if len(st.trail) == self.formula.num_vars:
                return "sat"
            st.enqueue_decision(self.decide())
            self.stats.decisions += 1
            return "decide"
        return "learn" if self._handle_conflict(conflict) else "unsat"

    def _handle_conflict(self, conflict):
        """Analyze/backtrack/install one conflict episode.

        Returns True once a learned clause is installed, or False when the
        formula is refuted (a level-0 clause was derived).
        """
        cfg = self.cfg
        st = self.state
        stats = self.stats
        trace = st.trace
        # the stored clause whose literals are under analysis, until a resolution
        # step (its pivot never comes back) or minimization changes them
        stored = conflict
        lits = conflict.lits
        while True:
            stats.conflicts += 1
            if trace is not None:
                # clause None: a re-falsified learned clause not yet stored
                index = stored.index if stored is not None else None
                trace({"kind": "conflict", "clause": index, "level": len(st.decisions)})
            learned = run_analysis(st, lits, cfg.analyze)
            if trace is not None:
                for pivot, kind in learned.steps:
                    trace({"kind": "resolve", "pivot": lit_to_int(pivot), "reason": kind})
            pre = learned
            if cfg.minimize:
                learned = minimize_clause(st, learned)
            if learned.lits != lits:
                stored = None
            if self.on_learn is not None:
                self.on_learn(self, pre, learned)
            self._bump_clause(learned.lits)
            if learned.level == 0:
                return False
            d = choose_backtrack_level(learned, cfg)
            run_backtrack(st, d, cfg.mode, stats)
            # Every other literal lies at or below second_level <= d, so it
            # stays falsified: the clause conflicts again iff the asserting
            # literal came back falsified.
            refalsified = st.val[learned.asserting] == FALSE
            if st.checked:
                assert refalsified == all(
                    st.val[x] == FALSE for x in learned.lits
                ), "a literal below the backtrack level lost its falsification"
            if refalsified:
                # Only reachable through lazy reimplication with the classical
                # analysis stop.
                assert cfg.mode == "lscb" and cfg.analyze == 1, (
                    "re-falsified learned clause outside lazy mode with strategy 1"
                )
                lits = learned.lits
                continue
            self.install_learned(learned, stored)
            self._checkpoint()
            return True

    def _model(self):
        val = self.state.val
        return {v: val[v << 1] == TRUE for v in range(1, self.formula.num_vars + 1)}
