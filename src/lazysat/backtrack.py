"""Mode-dispatched backtracking.

All modes remove every literal above the target level, clear its
bookkeeping, and compact the trail in one order-preserving pass.  They
differ in what happens to the propagation head and to stored missed lower
implications:

* ``ncb``   removal is a contiguous suffix; the head is clamped.
* ``wcb``   kept literals keep their side of the head; nothing is repaired.
* ``rscb``  the head rewinds to where the first removed level opened, so
            every kept literal from there on is repropagated.
* ``lscb``  stored MLIs whose residual level survives are reimplied at the
            end of the queue, lowest residual level first.

Every mode puts an unassigned variable back into the solver's decision
order (``state.order``) unless it still has a current entry there.
"""

from __future__ import annotations

from heapq import heappush

from .state import INF, UNDEF


def backtrack(state, d, mode, stats=None):
    """Undo the trail down to level d (which must be below the current level)."""
    st = state
    assert d < len(st.decisions), "backtrack target must be below the current level"
    trail = st.trail
    level = st.level
    val = st.val
    old_level = len(st.decisions)
    old_head = st.head
    order = st.order
    if order is not None:
        heap = order.heap
        queued = order.queued
        activity = order.activity

    if mode == "rscb":
        head_cut = st.pos[st.decisions[d] >> 1]  # captured before positions shift
    else:
        head_cut = old_head

    kept = []
    new_head = 0
    reimply = []
    removed = 0
    for p, lit in enumerate(trail):
        v = lit >> 1
        if level[v] <= d:
            if p < head_cut:
                new_head += 1
            kept.append(lit)
            continue
        removed += 1
        if st.lazy_cl[v] is not None:
            if st.lazy_lvl[v] <= d:
                reimply.append((st.lazy_lvl[v], len(reimply), st.lazy_cl[v]))
            st.lazy_cl[v] = None
            st.lazy_lvl[v] = INF
        val[lit] = UNDEF
        val[lit ^ 1] = UNDEF
        level[v] = INF
        st.pos[v] = -1
        st.reason[v] = None
        if order is not None and not queued[v]:
            queued[v] = True
            heappush(heap, (-activity[v], v))

    if mode == "ncb" and st.checked:
        assert kept == trail[: len(kept)], "ncb trail removal must be a contiguous suffix"

    st.trail = kept
    for p, lit in enumerate(kept):
        st.pos[lit >> 1] = p
    st.head = new_head
    st.decisions = [x for x in st.decisions if val[x] != UNDEF]
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

    reimply.sort(key=lambda item: (item[0], item[1]))
    for lvl, _, clause in reimply:
        unassigned = [x for x in clause.lits if val[x] == UNDEF]
        assert len(unassigned) == 1, "a stored MLI must be unit after backtracking"
        st.enqueue_implied(unassigned[0], clause, lvl, kind="reimply")
        if stats is not None:
            stats.reimplications += 1
