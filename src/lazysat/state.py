"""Mutable solver state: trail, levels, reasons, and the lazy reimplication vector.

The trail is an ordered partial assignment split by a propagation head:
positions before ``head`` have been propagated, the rest form the pending
queue.  ``INF`` is the reserved maximal level sentinel: it compares greater
than every finite level, and is the level of unassigned variables and of
the undefined clause.

Per variable the state keeps a level, a reason, a stored missed lower
implication with its cached level, a saved phase and a VSIDS activity,
which orders the decision heap.  Trail positions are not stored: a literal
is on the trail at most once, so readers derive them.
"""

from __future__ import annotations

from heapq import heapify

from .formula import lit_to_int

INF = float("inf")

TRUE = 1
FALSE = -1
UNDEF = 0


class TrailState:
    def __init__(self, num_vars, checked=False, trace=None):
        n = num_vars + 1
        self.num_vars = num_vars
        self.val = [UNDEF] * (2 * n)  # per encoded literal
        self.level = [INF] * n  # per variable
        self.reason = [None] * n  # per variable: implying clause or None
        self.lazy_cl = [None] * n  # per variable: stored MLI clause or None
        self.lazy_lvl = [INF] * n  # cached level of lazy_cl minus its satisfied literal
        self.saved_phase = [1] * n  # sign bit of last assignment; initial phase negative
        self.activity = [0.0] * n  # per variable: VSIDS activity
        self.heap = [(-0.0, v) for v in range(1, n)]  # all zero: already a heap
        self.queued = [False] + [True] * num_vars  # per variable: has a current heap entry
        self.trail = []
        self.head = 0
        self.decisions = []
        self.checked = checked
        self.trace = trace

    def rebuild_heap(self):
        """One current heap entry per unassigned variable, and nothing else.

        The decision heap is a lazy binary heap of ``(-activity, var)``
        entries, the VSIDS order heap of Chaff and MiniSat: unassigned
        variables by decreasing activity, lowest index on ties.  Invariant:
        every unassigned variable has ``queued`` set, and a queued variable
        has an entry keyed at its current activity.  Other entries are
        stale: their variable is assigned, or they carry an older, lower
        activity (activity only grows between rebuilds) and so sort after
        the variable's current entry.
        """
        activity = self.activity
        queued = self.queued
        val = self.val
        heap = []
        for v in range(1, len(activity)):
            free = val[v << 1] == UNDEF
            queued[v] = free
            if free:
                heap.append((-activity[v], v))
        heapify(heap)
        self.heap = heap

    # -- queries ---------------------------------------------------------

    def residual_level(self, lits, lit):
        """Max level over the literals other than lit; 0 for an empty rest."""
        level = self.level
        best = 0
        for x in lits:
            if x != lit:
                lx = level[x >> 1]
                if lx > best:
                    best = lx
        return best

    def _implied_level(self, lits, lit, message):
        """``residual_level`` in the same pass that asserts the rest falsified."""
        val = self.val
        level = self.level
        best = 0
        for x in lits:
            if x != lit:
                assert val[x] == FALSE, message
                lx = level[x >> 1]
                if lx > best:
                    best = lx
        return best

    # -- transitions -----------------------------------------------------

    def _assign(self, lit, lvl, reason):
        v = lit >> 1
        self.val[lit] = TRUE
        self.val[lit ^ 1] = FALSE
        self.level[v] = lvl
        self.reason[v] = reason
        self.saved_phase[v] = lit & 1
        self.trail.append(lit)

    def enqueue_decision(self, lit):
        """Append a decision to the pending queue and open a new level."""
        assert self.val[lit] == UNDEF, "deciding an assigned variable"
        self.decisions.append(lit)
        self._assign(lit, len(self.decisions), None)
        if self.trace is not None:
            self.trace({"kind": "decide", "lit": lit_to_int(lit), "level": len(self.decisions)})

    def enqueue_implied(self, lit, reason, lvl, kind="imply"):
        """Append an implied literal with its reason clause at the given level.

        ``kind`` names the trace event: backtracking passes ``"reimply"``.
        """
        if self.checked:
            assert self.val[lit] == UNDEF, "implying an assigned variable"
            assert lit in reason.lits, "reason does not contain the implied literal"
            rest_level = self._implied_level(reason.lits, lit, "reason not unit under the trail")
            assert lvl == rest_level, "implied level mismatch"
        self._assign(lit, lvl, reason)
        if self.trace is not None:
            self.trace(
                {"kind": kind, "lit": lit_to_int(lit), "level": lvl, "clause": reason.index}
            )

    def set_lazy(self, lit, clause, lvl):
        """Record a new or improved missed lower implication for lit at level lvl."""
        if self.checked:
            assert self.val[lit] == TRUE, "MLI target must be satisfied"
            assert lit in clause.lits, "MLI clause must contain its literal"
            rest_level = self._implied_level(clause.lits, lit, "MLI rest must be falsified")
            assert lvl == rest_level, "MLI level mismatch"
            assert lvl < self.level[lit >> 1], "MLI must be strictly lower than the literal"
            assert lvl < self.lazy_lvl[lit >> 1], "MLI must improve the stored one"
        v = lit >> 1
        self.lazy_cl[v] = clause
        self.lazy_lvl[v] = lvl
        if self.trace is not None:
            self.trace(
                {"kind": "set_lazy", "lit": lit_to_int(lit), "level": lvl, "clause": clause.index}
            )
