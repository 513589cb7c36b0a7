"""First-UIP conflict analysis with lazy-reason awareness, plus clause minimization.

The analysis resolves the conflicting clause against trail reasons until a
single literal remains at the conflict level.  Strategy 2 additionally
consults the lazy reimplication vector: it refuses to stop while the
asserting candidate has a stored missed lower implication, resolving with
that clause instead of the real reason.  Strategy 1 is the classical stop;
with it the caller must tolerate the learned clause conflicting again after
backtracking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .formula import Clause
from .state import FALSE


@dataclass
class LearnedClause:
    """Result of conflict analysis: fully falsified and implied by the formula."""

    lits: list  # encoded literals, resolution order
    level: int  # max level over the clause
    second_level: int  # second-highest distinct level (0 if |lits| <= 1)
    asserting: int  # the unique literal at `level`
    source: Clause | None = None  # the conflicting clause itself, when returned unchanged
    steps: list = field(default_factory=list)  # (pivot trail literal, "reason" | "lazy")


def resolve(d_lits, c_lits, pivot):
    """Binary resolution (D minus not-pivot) union (C' minus pivot), set semantics.

    ``pivot`` is the literal as it occurs in C'; its negation must occur in
    D.  Order is preserved: D's literals first, then C's new ones.
    """
    neg = pivot ^ 1
    assert neg in d_lits and pivot in c_lits, "resolution pivot missing"
    out = [x for x in d_lits if x != neg]
    seen = set(out)
    for y in c_lits:
        if y != pivot and y not in seen:
            seen.add(y)
            out.append(y)
    return out


def analyze(state, conflict, strategy=2):
    """Run conflict analysis on a fully falsified clause (or literal list)."""
    if isinstance(conflict, Clause):
        d_lits = list(conflict.lits)
        source = conflict
    else:
        d_lits = list(conflict)
        source = None
    level = state.level
    pos = state.pos
    if state.checked:
        assert all(state.val[x] == FALSE for x in d_lits), "conflict clause must be falsified"
    steps = []
    guard = 4 * len(state.trail) + 2 * len(d_lits) + 8
    while True:
        guard -= 1
        assert guard > 0, "conflict analysis failed to converge"
        dlev = 0
        for x in d_lits:
            lx = level[x >> 1]
            if lx > dlev:
                dlev = lx
        n = 0
        pivot = -1
        pivot_pos = -1
        for x in d_lits:
            v = x >> 1
            if level[v] == dlev:
                n += 1
                if pos[v] > pivot_pos:
                    pivot_pos = pos[v]
                    pivot = x
        trail_lit = pivot ^ 1  # the satisfied literal on the trail
        lazy = state.lazy_cl[pivot >> 1] if strategy == 2 else None
        if n == 1 and lazy is None:
            return LearnedClause(
                lits=d_lits,
                level=dlev,
                second_level=max(
                    (level[x >> 1] for x in d_lits if x != pivot), default=0
                ),
                asserting=pivot,
                source=source if not steps else None,
                steps=steps,
            )
        if lazy is not None:
            reason = lazy
            kind = "lazy"
        else:
            reason = state.reason[pivot >> 1]
            kind = "reason"
        assert reason is not None, "analysis pivot has no reason clause"
        steps.append((trail_lit, kind))
        d_lits = resolve(d_lits, reason.lits, trail_lit)
        if state.checked:
            assert all(state.val[x] == FALSE for x in d_lits), "resolvent must stay falsified"


def minimize(state, learned):
    """Drop literals whose falsification is already forced by the rest.

    A literal is removable when one of the two implying clauses of its
    trail complement (the real reason or the stored MLI) has every other
    literal either in the clause already or itself removable.  The
    asserting literal is never dropped.

    The search walks implying clauses depth first on an explicit stack
    (Sörensson & Biere 2009), so a long implication chain cannot exhaust
    the interpreter's recursion limit.  It visits the real reason before
    the stored MLI and each clause in literal order.  A literal whose walk
    is still open counts as not removable, which cuts cycles.
    """
    dset = set(learned.lits)
    memo = {}  # trail literal -> removable; False while its walk is open

    def removable(root):
        if root in memo:
            return memo[root]
        memo[root] = False
        stack = [(root, 0, 0)]  # trail literal, implying-clause slot, literal index
        while stack:
            t, slot, i = stack.pop()
            v = t >> 1
            reasons = (state.reason[v], state.lazy_cl[v])
            while slot < 2:
                reason = reasons[slot]
                if reason is not None:
                    lits = reason.lits
                    while i < len(lits):
                        y = lits[i]
                        if y != t and y not in dset and not memo.get(y ^ 1):
                            break
                        i += 1
                    if i == len(lits):
                        memo[t] = True
                        break
                    child = lits[i] ^ 1
                    if child not in memo:
                        # Resume here once the child's walk is closed.
                        stack.append((t, slot, i))
                        stack.append((child, 0, 0))
                        memo[child] = False
                        break
                slot += 1
                i = 0
        return memo[root]

    kept = [
        x for x in learned.lits if x == learned.asserting or not removable(x ^ 1)
    ]
    if len(kept) == len(learned.lits):
        return learned
    return LearnedClause(
        lits=kept,
        level=learned.level,
        second_level=max(
            (state.level[x >> 1] for x in kept if x != learned.asserting), default=0
        ),
        asserting=learned.asserting,
        source=None,
        steps=learned.steps,
    )
