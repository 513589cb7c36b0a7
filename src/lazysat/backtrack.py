"""Mode-dispatched backtracking.

All modes remove every literal above the target level, clear its
bookkeeping, and compact the trail in one order-preserving pass over the
suffix that starts at the first removed decision.  They
differ in what happens to the propagation head and to stored missed lower
implications:

* ``ncb``   removal is a contiguous suffix; the head is clamped.
* ``wcb``   kept literals keep their side of the head; nothing is repaired.
* ``rscb``  the head rewinds to where the first removed level opened, so
            every kept literal from there on is repropagated.
* ``lscb``  a removed literal whose stored MLI's residual level survives
            is reimplied at the end of the queue, lowest level first.

Every mode puts an unassigned variable back into the decision heap
(``state.heap``) unless it still has a current entry there.
"""

from __future__ import annotations

from heapq import heappush
from operator import itemgetter

from .state import INF, UNDEF


def backtrack(state, d, mode, stats):
    """Undo the trail down to level d (which must be below the current level).

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
        if not queued[v]:
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
