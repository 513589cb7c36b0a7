"""Mutable solver state: trail, levels, reasons, and the lazy reimplication vector.

The trail is an ordered partial assignment split by a propagation head:
positions before ``head`` have been propagated, the rest form the pending
queue.  ``INF`` is the reserved maximal level sentinel: it compares greater
than every finite level, and is the level of unassigned variables and of
the undefined clause.
"""

from __future__ import annotations

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
        self.pos = [-1] * n  # per variable: position in trail, -1 if unassigned
        self.reason = [None] * n  # per variable: implying clause or None
        self.lazy_cl = [None] * n  # per variable: stored MLI clause or None
        self.lazy_lvl = [INF] * n  # cached level of lazy_cl minus its satisfied literal
        self.saved_phase = [1] * n  # sign bit of last assignment; initial phase negative
        self.trail = []
        self.head = 0
        self.decisions = []
        self.checked = checked
        self.trace = trace
        self.on_assign = None  # callback(lit, flipped) used for agility tracking
        self.order = None  # the solver's DecisionOrder; backtrack requeues into it

    # -- queries ---------------------------------------------------------

    def value(self, lit):
        """TRUE if lit is on the trail, FALSE if its negation is, else UNDEF."""
        return self.val[lit]

    def lit_level(self, lit):
        """Level of the literal's variable; INF when unassigned."""
        return self.level[lit >> 1]

    def decision_level(self):
        return len(self.decisions)

    def lazy(self, lit):
        """The stored MLI clause for lit, or None; only the satisfied polarity has one."""
        if self.val[lit] == TRUE:
            return self.lazy_cl[lit >> 1]
        return None

    def lazy_level(self, lit):
        if self.val[lit] == TRUE:
            return self.lazy_lvl[lit >> 1]
        return INF

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

    def trail_ints(self):
        return [lit_to_int(x) for x in self.trail]

    # -- transitions -----------------------------------------------------

    def _assign(self, lit, lvl, reason):
        v = lit >> 1
        self.val[lit] = TRUE
        self.val[lit ^ 1] = FALSE
        self.level[v] = lvl
        self.pos[v] = len(self.trail)
        self.reason[v] = reason
        flipped = (lit & 1) != self.saved_phase[v]
        self.saved_phase[v] = lit & 1
        self.trail.append(lit)
        if self.on_assign is not None:
            self.on_assign(lit, flipped)

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
            rest = [x for x in reason.lits if x != lit]
            assert all(self.val[x] == FALSE for x in rest), "reason not unit under the trail"
            assert lvl == self.residual_level(reason.lits, lit), "implied level mismatch"
        self._assign(lit, lvl, reason)
        if self.trace is not None:
            self.trace(
                {"kind": kind, "lit": lit_to_int(lit), "level": lvl, "clause": reason.index}
            )

    def pop_next(self):
        """Advance the head: move the first queued literal into the propagated prefix."""
        assert self.head < len(self.trail), "pop from an empty queue"
        lit = self.trail[self.head]
        self.head += 1
        if self.trace is not None:
            self.trace({"kind": "pop", "lit": lit_to_int(lit)})
        return lit

    def set_lazy(self, lit, clause):
        """Record a new or improved missed lower implication for lit."""
        lvl = self.residual_level(clause.lits, lit)
        if self.checked:
            assert self.val[lit] == TRUE, "MLI target must be satisfied"
            assert lit in clause.lits, "MLI clause must contain its literal"
            assert all(
                self.val[x] == FALSE for x in clause.lits if x != lit
            ), "MLI rest must be falsified"
            assert lvl < self.level[lit >> 1], "MLI must be strictly lower than the literal"
            assert lvl < self.lazy_lvl[lit >> 1], "MLI must improve the stored one"
        v = lit >> 1
        self.lazy_cl[v] = clause
        self.lazy_lvl[v] = lvl
        if self.trace is not None:
            self.trace(
                {"kind": "set_lazy", "lit": lit_to_int(lit), "level": lvl, "clause": clause.index}
            )
