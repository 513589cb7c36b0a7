"""Mutable solver state: the trail, its per-variable tables, and their undo.

The trail is an ordered partial assignment split by a propagation head:
positions before ``head`` have been propagated, the rest form the pending
queue.  ``INF`` is the reserved maximal level sentinel: it compares greater
than every finite level.  It is the level of unassigned variables and the
``lazy_lvl`` of a variable with no stored MLI, so ``bcp``'s lazy skip and
MLI test compare against ``lazy_lvl`` with no separate check for one.

Per variable the state keeps a level, a reason, a stored missed lower
implication with its cached level, a saved phase, a VSIDS activity and
conflict analysis's mark.
Decisions come from two tiers: a heap holds the variables with positive
activity, and a monotone index cursor reaches the zero-activity ones, which
VSIDS orders by index alone.  Trail positions are not stored: a literal is
on the trail at most once, so readers derive them.  ``TrailState``'s
methods extend the trail and ``backtrack`` undoes it.
"""

from __future__ import annotations

from heapq import heapify, heappush
from operator import itemgetter

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
        self.saved_phase = [1] * n  # sign bit when last unassigned (backtrack); initially negative
        self.activity = [0.0] * n  # per variable: VSIDS activity
        self.seen = bytearray(n)  # per variable: analysis marks, all zero between analyses
        self.heap = []  # no activity yet: the cursor reaches every variable
        self.queued = [False] * n  # per variable: has a current heap entry
        self.cursor = 1  # the index tier's scan resumes here
        self.trail = []
        self.head = 0
        self.decisions = []
        self.checked = checked
        self.trace = trace

    def rebuild_heap(self):
        """One current heap entry per unassigned variable of positive activity.

        The decision heap is a lazy binary heap of ``(-activity, var)``
        entries, the VSIDS order heap of Chaff and MiniSat: unassigned
        variables by decreasing activity, lowest index on ties.  Among
        zero-activity variables that order is index order, so they need no
        heap: ``Solver.decide`` scans them up from ``cursor``.  Invariant:
        every unassigned variable with positive activity, and every
        unassigned variable below ``cursor``, has ``queued`` set, and a
        queued variable has an entry keyed at its current activity.  Other
        entries are stale: their variable is assigned, or they carry an
        older, lower activity (activity only grows between rebuilds) and so
        sort after the variable's current entry.  ``cursor`` only rises
        between rebuilds, and a rebuild resets it to 1.
        """
        activity = self.activity
        queued = self.queued
        val = self.val
        heap = []
        for v in range(1, len(activity)):
            keep = val[v << 1] == UNDEF and activity[v] > 0.0
            queued[v] = keep
            if keep:
                heap.append((-activity[v], v))
        heapify(heap)
        self.heap = heap
        self.cursor = 1

    # -- queries ---------------------------------------------------------

    def residual(self, lits, lit):
        """Max level over the literals other than lit, and the first of them
        in ``lits`` at that level: a learned clause's second level and the
        literal it is watched at beside lit.  An empty rest gives (0, None)."""
        level = self.level
        best = 0
        first = None
        for x in lits:
            if x != lit:
                lx = level[x >> 1]
                if lx > best or first is None:
                    best = lx
                    first = x
        return best, first

    def _implied_level(self, lits, lit, message):
        """``residual``'s level in the same pass that asserts the rest falsified."""
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
            assert lvl == self._implied_level(
                reason.lits, lit, "reason not unit under the trail"
            ), "implied level mismatch"
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
            assert lvl == self._implied_level(
                clause.lits, lit, "MLI rest must be falsified"
            ), "MLI level mismatch"
            assert lvl < self.level[lit >> 1], "MLI must be strictly lower than the literal"
            assert lvl < self.lazy_lvl[lit >> 1], "MLI must improve the stored one"
        v = lit >> 1
        self.lazy_cl[v] = clause
        self.lazy_lvl[v] = lvl
        if self.trace is not None:
            self.trace(
                {"kind": "set_lazy", "lit": lit_to_int(lit), "level": lvl, "clause": clause.index}
            )


def backtrack(state, d, mode, stats):
    """Undo the trail down to level d (which must be below the current level).

    All modes remove every literal above d, clear its bookkeeping, and
    compact the trail in one order-preserving pass over the suffix that
    starts at the first removed decision.  They differ in what happens to
    the propagation head and to stored missed lower implications:

    * ``ncb``   removal is a contiguous suffix; the head is clamped.
    * ``wcb``   kept literals keep their side of the head; nothing is repaired.
    * ``rscb``  the head rewinds to where the first removed level opened, so
                every kept literal from there on is repropagated.
    * ``lscb``  a removed literal whose stored MLI's residual level survives
                is reimplied at the end of the queue, lowest level first.

    Every mode saves the sign of each variable it unassigns as its phase,
    and requeues it if it lacks a current heap entry and has positive
    activity or lies below ``TrailState.cursor``, which keeps the invariant
    that ``TrailState.rebuild_heap`` states.  The cursor never moves back, so
    a zero-activity variable at or above it waits for the cursor's scan.

    Every literal before the decision that opened level d + 1 has a level
    of at most d, so only the trail from there on is scanned and compacted.
    That decision is found by its value: a literal is on the trail at most
    once, and compaction only moves literals at or after the first removed
    decision, so no earlier decision ever moves.
    """
    st = state
    assert d < len(st.decisions), "backtrack target must be below the current level"
    trail = st.trail
    level = st.level
    val = st.val
    old_level = len(st.decisions)
    heap = st.heap  # bound once: nothing rebuilds the heap during a backtrack
    queued = st.queued
    activity = st.activity
    cursor = st.cursor
    saved_phase = st.saved_phase

    start = trail.index(st.decisions[d])
    # rscb rewinds the head to the start; elsewhere kept literals keep their side of it
    head_cut = start if mode == "rscb" else st.head
    new_head = start if start < head_cut else head_cut
    w = start
    reimply = []
    for p in range(start, len(trail)):
        lit = trail[p]
        v = lit >> 1
        if level[v] <= d:
            if p < head_cut:
                new_head += 1
            trail[w] = lit
            w += 1
            continue
        if st.lazy_cl[v] is not None:
            if st.lazy_lvl[v] <= d:
                reimply.append((st.lazy_lvl[v], st.lazy_cl[v], lit))
            st.lazy_cl[v] = None
            st.lazy_lvl[v] = INF
        val[lit] = UNDEF
        val[lit ^ 1] = UNDEF
        level[v] = INF
        st.reason[v] = None
        saved_phase[v] = lit & 1
        if not queued[v] and (v < cursor or activity[v]):
            queued[v] = True
            heappush(heap, (-activity[v], v))
    removed = len(trail) - w

    if mode == "ncb" and st.checked:
        # the suffix starts at a removed decision, so nothing in it may stay
        assert w == start, "ncb trail removal must be a contiguous suffix"

    del trail[w:]
    st.head = new_head
    del st.decisions[d:]
    if st.trace is not None:
        st.trace(
            {
                "kind": "backtrack",
                "from": old_level,
                "to": d,
                "removed": removed,
                "head": new_head,
            }
        )

    reimply.sort(key=itemgetter(0))  # stable: trail order on equal levels
    for lvl, clause, lit in reimply:
        st.enqueue_implied(lit, clause, lvl, kind="reimply")
        stats.reimplications += 1
