"""First-UIP conflict analysis with lazy-reason awareness, plus clause minimization.

Analysis is a function of literals: it resolves the literals of a fully
falsified clause against trail reasons until a single literal remains at
the conflict level.  Strategy 2 additionally consults the lazy
reimplication vector: it refuses to stop while the asserting candidate has
a stored missed lower implication, resolving with that clause instead of
the real reason.  Strategy 1 is the classical stop; with it the caller
must tolerate the learned clause conflicting again after backtracking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .state import FALSE


@dataclass
class LearnedClause:
    """Result of conflict analysis: literals falsified and implied by the formula.

    The clause names its own watch pair: ``asserting`` and ``second``.
    """

    lits: list  # encoded literals, resolution order
    level: int  # max level over the clause
    second_level: int  # second-highest distinct level (0 if |lits| <= 1)
    second: int | None  # first literal at second_level other than `asserting`; None if none
    asserting: int  # the unique literal at `level`
    steps: list = field(default_factory=list)  # (pivot trail literal, "reason" | "lazy")


def analyze(state, lits, strategy=2):
    """Run conflict analysis on the literals of a fully falsified clause.

    First UIP by a backward trail walk (Eén & Sörensson 2003).  ``seen``
    marks the variables of the resolvent and ``n`` counts its literals at
    the current maximal level ``dlev``.  Each step takes as pivot the
    latest trail literal at ``dlev`` whose negation is in the resolvent.
    A reason clause only adds literals that lie earlier on the trail, so
    the walk continues from the pivot.  A lazy step adds literals below
    ``dlev`` that may lie later on the trail; when it resolves away the
    last literal at ``dlev`` the level drops, and the walk restarts at the
    trail's end.  A resolved variable never comes back (every literal a
    later step adds is below it or earlier on the trail), so ``lits`` only
    grows and the literals of resolved variables are dropped at the end;
    what remains is in the order of repeated binary resolution: the
    resolvent's literals first, then the reason's new ones.  An asserting
    conflict comes back as an unchanged copy of ``lits``, with no steps.

    ``seen`` is the state's mark buffer, so a call allocates nothing per
    declared variable; every exit leaves it all zero.  The learned clause
    names its second level and the literal to watch there, found in one
    pass by ``TrailState.residual``.
    """
    lits = list(lits)
    level = state.level
    val = state.val
    trail = state.trail
    reasons = state.reason
    lazy_cl = state.lazy_cl if strategy == 2 else None
    checked = state.checked
    if checked:
        assert all(val[x] == FALSE for x in lits), "conflict clause must be falsified"
    seen = state.seen
    try:
        for x in lits:
            seen[x >> 1] = 1
        dlev, n = _top_level(lits, seen, level)
        i = len(trail)
        steps = []
        while True:
            i -= 1
            t = trail[i]
            v = t >> 1
            while not seen[v] or level[v] != dlev:
                i -= 1
                t = trail[i]
                v = t >> 1
            lazy = lazy_cl[v] if lazy_cl is not None else None
            if n == 1 and lazy is None:
                break
            if lazy is not None:
                reason = lazy
                steps.append((t, "lazy"))
            else:
                reason = reasons[v]
                assert reason is not None, "analysis pivot has no reason clause"
                steps.append((t, "reason"))
            for y in reason.lits:
                u = y >> 1
                if not seen[u]:
                    seen[u] = 1
                    lits.append(y)
                    if checked:
                        # the state is read-only here, so once falsified is enough
                        assert val[y] == FALSE, "resolvent must stay falsified"
                    if level[u] == dlev:
                        n += 1
            seen[v] = 0
            n -= 1
            if n == 0:
                dlev, n = _top_level(lits, seen, level)
                i = len(trail)
        if steps:
            lits = [x for x in lits if seen[x >> 1]]
    finally:
        for x in lits:  # every marked variable is in lits
            seen[x >> 1] = 0
    pivot = t ^ 1
    second_level, second = state.residual(lits, pivot)
    return LearnedClause(lits, dlev, second_level, second, pivot, steps)


def _top_level(lits, seen, level):
    """Maximal level over the live literals and how many lie at it."""
    top = -1
    n = 0
    for x in lits:
        v = x >> 1
        if seen[v]:
            lv = level[v]
            if lv > top:
                top = lv
                n = 1
            elif lv == top:
                n += 1
    return top, n


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
    second_level, second = state.residual(kept, learned.asserting)
    return LearnedClause(
        kept, learned.level, second_level, second, learned.asserting, learned.steps
    )
