"""Executable predicates for the solver invariants (ids 1..8).

Each check quantifies over the watched clauses (both watch orientations)
or over the trail, exactly as the invariant is stated:

1  weak watched literals        a falsified-in-prefix watch implies the
                                other watch is not falsified in the prefix
2  implied literals             non-decisions carry a unit reason
3  topological order            reason literals precede their consequence
4  strong watched literals      a falsified-in-prefix watch implies the
                                other watch is satisfied
5  backward compatible          ... and satisfied at a level not above it
6  lazy reimplication           stored MLIs really are MLIs
7  lazy backward compatible     5 weakened by a stored-MLI alternative
8  blocker variant              7 weakened by a low-enough satisfied blocker,
                                on a clause whose blocker is set

The clause scan reads the watched literals each clause holds.  It skips a
clause whose watches are both unfalsified, and a watch orientation whose
other watch is satisfied at or below the falsified one's level (that alone
satisfies 1, 4, 5, 7 and 8), before it builds any detail; the detail string
is formatted only for a reported violation.  Likewise one pass over a
reason that holds its literal, with every other literal falsified earlier
on the trail, settles 2 and 3; only another reason has its literal
formatted and is scanned for reports.

Checks are read-only, take nothing but the state and the formula, and are
O(total clause size).  Trail positions are derived by one pass over the
trail.  Checks expect a quiescent state: a pending conflict legitimately
violates 4/5/7 on the conflicting clause until backtracking and
learned-clause installation finish.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import lit_to_int
from .state import FALSE, TRUE


@dataclass
class Violation:
    invariant: int
    subject: str  # clause "C<i>" or literal rendered as a signed int
    detail: str

    def __repr__(self):
        return "Violation(inv=%d, %s: %s)" % (self.invariant, self.subject, self.detail)


def check_ids(state, formula):
    """Evaluate all eight invariants in one pass over clauses and trail.

    Every id is checked; invariant 8 applies to a clause whose blocker is
    set, which is every watched clause exactly when the solver maintains
    blockers.  The name stays from when callers chose the ids, because
    perfbench/run.py patches the function by that name to time it.
    """
    out = []
    val = state.val
    level = state.level
    head = state.head
    pos = [-1] * (state.num_vars + 1)  # trail index per variable, -1 if unassigned
    for p, lit in enumerate(state.trail):
        pos[lit >> 1] = p

    lazy_cl = state.lazy_cl
    for clause in formula.clauses:
        w0 = clause.w0
        w1 = clause.w1
        if (val[w0] != FALSE and val[w1] != FALSE) or w0 == w1:
            continue  # neither watch is falsified, or a unit clause (never watched)
        for c1, c2 in ((w0, w1), (w1, w0)):
            if val[c1] != FALSE or pos[c1 >> 1] >= head:
                continue  # ¬c1 not in the propagated prefix
            lvl1 = level[c1 >> 1]
            lvl2 = level[c2 >> 1]
            c2_sat = val[c2] == TRUE
            if c2_sat and lvl2 <= lvl1:
                continue  # satisfied at or below: 1, 4, 5, 7 and 8 all hold
            lazy_ok = False
            if c2_sat:
                mli = lazy_cl[c2 >> 1]
                lazy_ok = mli is not None and state.residual_level(mli.lits, c2) <= lvl1
            b = clause.blocker
            f8 = b != 0 and not lazy_ok and not (val[b] == TRUE and level[b >> 1] <= lvl1)
            where = "C%d" % clause.index
            ctx = "c1=%d@%s c2=%d@%s" % (lit_to_int(c1), lvl1, lit_to_int(c2), lvl2)
            if val[c2] == FALSE and pos[c2 >> 1] < head:
                out.append(Violation(1, where, "both watches falsified in prefix; " + ctx))
            if not c2_sat:
                out.append(Violation(4, where, "watch falsified, other not satisfied; " + ctx))
            out.append(Violation(5, where, "other watch not satisfied at or below; " + ctx))
            if not lazy_ok:
                out.append(Violation(7, where, "no low satisfaction nor stored MLI; " + ctx))
            if f8:
                out.append(Violation(8, where, "neither MLI cover nor blocker; " + ctx))

    dec = set(state.decisions)
    for lit in state.trail:
        v = lit >> 1
        if lit in dec:
            continue
        reason = state.reason[v]
        if reason is not None:
            # a sound reason satisfies 2 and 3; only a broken one is reported
            p = pos[v]
            for x in reason.lits:
                if x != lit and (val[x ^ 1] != TRUE or pos[x >> 1] > p):
                    break
            else:
                if lit in reason.lits:
                    continue
        who = str(lit_to_int(lit))
        if reason is None:
            out.append(Violation(2, who, "non-decision without reason"))
            continue
        if lit not in reason.lits:
            out.append(Violation(2, who, "reason lacks the implied literal"))
        else:
            for x in reason.lits:
                if x != lit and val[x ^ 1] != TRUE:
                    detail = "reason literal %d not falsified" % lit_to_int(x)
                    out.append(Violation(2, who, detail))
        for x in reason.lits:
            if x != lit and (val[x ^ 1] != TRUE or pos[x >> 1] > p):
                out.append(Violation(3, who, "reason literal %d not before it" % lit_to_int(x)))

    for v, clause in enumerate(state.lazy_cl):
        if clause is None:
            continue
        plit = v << 1
        lit = plit if val[plit] == TRUE else plit | 1
        who = str(lit_to_int(lit))
        if val[lit] != TRUE:
            out.append(Violation(6, who, "stored MLI on unassigned variable"))
            continue
        if lit not in clause.lits:
            out.append(Violation(6, who, "stored MLI lacks its literal"))
            continue
        rest_false = all(val[x ^ 1] == TRUE for x in clause.lits if x != lit)
        if not rest_false:
            out.append(Violation(6, who, "stored MLI rest not falsified"))
            continue
        residual = state.residual_level(clause.lits, lit)
        if not residual < level[v]:
            out.append(
                Violation(6, who, "stored MLI level %s not below %s" % (residual, level[v]))
            )
        if state.lazy_lvl[v] != residual:
            out.append(
                Violation(
                    6, who, "cached MLI level %s differs from %s" % (state.lazy_lvl[v], residual)
                )
            )

    return out
