"""Watched-literal Boolean constraint propagation with MLI detection.

``Propagator.bcp`` is the one propagation kernel.  It runs the whole
pending queue in a single frame: the state's arrays are bound to locals
once per call, the head and the propagation count are kept in locals and
written back on exit, and each queued literal visits the clauses watching
its negation in one inline loop.  An implied literal is assigned inline
too.  Given the solver's decider, a call also decides when the queue
drains, as MiniSat's ``search`` loop does, writing the head and the count
back first, and so runs decisions and propagation in one frame until a
conflict or a full trail.  With checked asserts or a trace callback,
implications go through ``enqueue_implied``; the search is the same either
way.  Only ``bcp`` moves the head; it emits each ``pop`` event itself, and
the ``decide`` event of each decision it makes.

One code path serves all backtracking modes.  The mode only changes the
skip condition when the other watched literal is already satisfied: the
classical modes skip unconditionally, lazy mode additionally requires the
satisfaction (or a stored missed lower implication) to be at a level not
above the literal being propagated.  The lazy bookkeeping is inert outside
lazy mode because the classical skip fires first.

A clause holds its watched literals, so a visit reads them without loading
its literal list.  A ternary clause has exactly one replacement candidate,
the literal in neither watch slot: its stored literal sum ``Clause.sum3``
minus both watches.  So its visits resolve the replacement in place, from
one attribute load and two subtractions; ``_search_idx`` scans every other
clause length (``sum3`` is 0 there) for the replacement literal, and is
the reference the in-place answer agrees with.  Only ``_search_idx``
reads a clause's rotating ``search_pos``, so the ternary path leaves it
alone.  Either way the replacement's value is read once and serves both
the ternary level test and the "replacement not falsified" exit.
"""

from __future__ import annotations

from .formula import lit_to_int
from .state import FALSE, TRUE, UNDEF


class Propagator:
    def __init__(self, formula, state, mode, stats):
        self.formula = formula
        self.state = state
        self.lazy_mode = mode == "lscb"
        self.stats = stats
        self.wl = [[] for _ in range(2 * (formula.num_vars + 1))]

    # -- watch bookkeeping -------------------------------------------------

    def watch(self, clause, lit0, lit1):
        """Watch a clause that no list holds yet at two distinct literals: set
        both slots and append it to both lists (``rewatch`` moves a watch)."""
        clause.w0 = lit0
        clause.w1 = lit1
        self.wl[lit0].append(clause)
        self.wl[lit1].append(clause)

    def init_watches(self):
        """Watch each stored clause at the two literals its slots hold, in clause
        order, and return the unit clauses, which are never watched."""
        wl = self.wl
        units = []
        for clause in self.formula.clauses:
            w0 = clause.w0
            w1 = clause.w1
            if w0 == w1:
                units.append(clause)
                continue
            wl[w0].append(clause)
            wl[w1].append(clause)
        return units

    def rewatch(self, clause, lit0, lit1):
        """Point the clause's watches at two specific literals, fixing the lists.

        Nothing changes when the clause already watches exactly those two.
        """
        a = clause.w0
        b = clause.w1
        if (a == lit0 and b == lit1) or (a == lit1 and b == lit0):
            return
        for old in (a, b):
            if old != lit0 and old != lit1:
                self.wl[old].remove(clause)  # the watch-list invariant puts it there
        for new in (lit0, lit1):
            if new != a and new != b:
                self.wl[new].append(clause)
        clause.w0 = lit0
        clause.w1 = lit1

    # -- replacement search --------------------------------------------------

    def _search_idx(self, clause, c1, c2):
        """The literal to take over the falsified watch c1 (the name stays:
        perfbench's ``search`` span patches it).

        The first literal from ``search_pos`` on that the trail does not
        falsify, which becomes ``search_pos``; or, when the clause minus c2
        is fully falsified, its first literal of maximal level, c1 only when
        no other reaches c1's level.  ``bcp`` gives the same answer for
        ternary clauses without calling this; it serves every other length.
        """
        lits = clause.lits
        val = self.state.val
        n = len(lits)
        start = clause.search_pos
        for k in range(n):
            i = start + k
            if i >= n:
                i -= n
            x = lits[i]
            if x == c1 or x == c2:
                continue
            if val[x] != FALSE:
                clause.search_pos = i
                return x
        # Everything outside c2 is falsified: ties go to the lowest index, not c1.
        level = self.state.level
        best = c1
        best_lvl = level[c1 >> 1]
        for x in lits:
            if x == c2 or x == c1:
                continue
            lx = level[x >> 1]
            if lx > best_lvl or (lx == best_lvl and best == c1):
                best = x
                best_lvl = lx
        return best

    # -- propagation ---------------------------------------------------------

    def bcp(self, decide=None):
        """Propagate the pending queue to fixpoint, deciding too when given
        ``decide``.

        Each queued literal visits every clause watching its negation.
        Clauses whose falsified watch gets replaced move lists even when the
        replacement is itself falsified, so the remaining watch pair always
        exposes the highest falsified level.

        On conflict the triggering literal is left in the queue and the
        conflicting clause returned; otherwise the trail ends fully
        propagated.  The propagation counter advances once per head move.
        With ``decide``, a drained queue that leaves a variable unassigned
        takes ``decide()``'s literal as the reference decision writer in
        ``tests/support.py`` does, counts it, and propagates on: such a call
        returns only on a conflict or a full trail.
        """
        st = self.state
        stats = self.stats
        val = st.val
        level = st.level
        lazy_lvl = st.lazy_lvl
        reason = st.reason
        trail = st.trail
        wl = self.wl
        lazy_mode = self.lazy_mode
        trace = st.trace
        # implications' checked asserts and trace events live in
        # enqueue_implied; without either they run inline
        hooked = st.checked or trace is not None
        head = st.head
        props = stats.propagations
        while True:
            if head == len(trail):
                st.head = head
                stats.propagations = props
                if decide is None or head == st.num_vars:
                    return None
                lit = decide()
                assert val[lit] == UNDEF, "deciding an assigned variable"
                decisions = st.decisions
                decisions.append(lit)
                v = lit >> 1
                val[lit] = TRUE
                val[lit ^ 1] = FALSE
                level[v] = len(decisions)
                reason[v] = None
                trail.append(lit)
                stats.decisions += 1
                if trace is not None:
                    trace({"kind": "decide", "lit": lit_to_int(lit), "level": level[v]})
            c1 = trail[head] ^ 1
            lvl_c1 = level[c1 >> 1]
            watchers = wl[c1]
            # visited so far: j kept, compacted into watchers[:j], plus moved to
            # other lists; only other lists grow while this one is scanned
            j = moved = 0
            for clause in watchers:
                a = clause.w0
                c2 = clause.w1 if a == c1 else a
                vc2 = val[c2]
                if vc2 == TRUE:
                    if not lazy_mode or level[c2 >> 1] <= lvl_c1 or lazy_lvl[c2 >> 1] <= lvl_c1:
                        watchers[j] = clause
                        j += 1
                        continue
                r = clause.sum3  # 0 unless the clause is ternary
                if r:
                    # _search_idx's answer for its one candidate: take it unless
                    # it is falsified below c1 (a level tie moves off c1)
                    r -= c1 + c2
                    vr = val[r]
                    if vr == FALSE and level[r >> 1] < lvl_c1:
                        r = c1
                else:
                    r = self._search_idx(clause, c1, c2)
                    vr = val[r]
                if r == c1:
                    watchers[j] = clause
                    j += 1
                else:
                    if a == c1:
                        clause.w0 = r
                    else:
                        clause.w1 = r
                    wl[r].append(clause)
                    moved += 1
                    if vr != FALSE:
                        continue
                # The clause minus c2 is fully falsified and r has its maximal level.
                if vc2 == FALSE:
                    del watchers[j : j + moved]  # keeps the unvisited ones after the kept ones
                    st.head = head
                    stats.propagations = props
                    return clause
                lvl_r = level[r >> 1]
                if vc2 == TRUE:
                    if level[c2 >> 1] > lvl_r and lazy_lvl[c2 >> 1] > lvl_r:
                        st.set_lazy(c2, clause, lvl_r)
                        stats.mli_detected += 1
                    continue
                if hooked:
                    st.enqueue_implied(c2, clause, lvl_r)
                    continue
                v = c2 >> 1
                val[c2] = TRUE
                val[c2 ^ 1] = FALSE
                level[v] = lvl_r
                reason[v] = clause
                trail.append(c2)
            del watchers[j:]
            if trace is not None:
                trace({"kind": "pop", "lit": lit_to_int(trail[head])})
            head += 1
            props += 1
