"""Executable predicates for the solver invariants (ids 1..7; 8 is retired).

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

Each call first marks, in a fresh per-literal table, the literals
falsified in the propagated prefix: every falsified literal (found with
``list.index``) whose variable's last trail position is below the head, or
which is missing from the trail.  The clause scan then reads each stored
clause's two watched literals against that table, and only a clause with a
marked watch is looked at further.  A watch orientation whose other watch is
satisfied at or below the falsified one's level satisfies 1, 4, 5 and 7 at
once and is passed over inline; any other orientation violates 5, and
``_watch_reports`` tests the rest and formats the details.  Likewise one
pass over a reason that holds its literal, with every other literal
falsified earlier on the trail, settles 2 and 3; only another reason has
its literal formatted and is scanned for reports.  The stored-MLI loop runs
only when some variable holds one.

Checks are read-only, take nothing but the state and the formula, keep
nothing between calls, and are O(total clause size): every call scans
every stored clause and every trail literal, never the watch lists.  Trail
positions are derived by one pass over the trail.  Checks expect a
quiescent state: a pending conflict legitimately violates 4/5/7 on the
conflicting clause until backtracking and learned-clause installation
finish.
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
    """Evaluate all seven invariants in one pass over clauses and trail.

    Every id is checked.  The name stays from when callers chose the ids,
    because perfbench/run.py patches the function by that name to time it.
    """
    out = []
    val = state.val
    level = state.level
    reason_of = state.reason
    lazy_cl = state.lazy_cl
    trail = state.trail
    head = state.head
    pos = [-1] * (state.num_vars + 1)  # trail index per variable, -1 if unassigned
    for p, lit in enumerate(trail):
        pos[lit >> 1] = p

    # in_prefix[x]: literal x is falsified in the propagated prefix.  A
    # falsified variable missing from the trail has position -1, so it counts.
    in_prefix = [False] * len(val)
    k = 0
    for _ in range(val.count(FALSE)):
        k = val.index(FALSE, k)
        if pos[k >> 1] < head:
            in_prefix[k] = True
        k += 1

    for clause in formula.clauses:
        if in_prefix[clause.w0] or in_prefix[clause.w1]:
            w0 = clause.w0
            w1 = clause.w1
            if w0 == w1:
                continue  # a unit clause, never watched
            # a watch orientation holds at once when its other watch is
            # satisfied at or below the falsified one's level
            if in_prefix[w0] and (val[w1] != TRUE or level[w1 >> 1] > level[w0 >> 1]):
                _watch_reports(out, state, clause, w0, w1, in_prefix[w1])
            if in_prefix[w1] and (val[w0] != TRUE or level[w0 >> 1] > level[w1 >> 1]):
                _watch_reports(out, state, clause, w1, w0, in_prefix[w0])

    dec = set(state.decisions)
    for lit in trail:
        v = lit >> 1
        if lit in dec:
            continue
        reason = reason_of[v]
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

    if lazy_cl.count(None) == len(lazy_cl):
        return out  # no stored MLI
    for v, clause in enumerate(lazy_cl):
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


def _watch_reports(out, state, clause, c1, c2, c2_in_prefix):
    """Append the reports of one watch orientation: c1 is falsified in the
    propagated prefix, and c2 is not satisfied at or below c1's level, so
    invariant 5 is violated and 1, 4 and 7 are tested."""
    val = state.val
    level = state.level
    lvl1 = level[c1 >> 1]
    lvl2 = level[c2 >> 1]
    c2_sat = val[c2] == TRUE
    lazy_ok = False
    if c2_sat:
        mli = state.lazy_cl[c2 >> 1]
        lazy_ok = mli is not None and state.residual_level(mli.lits, c2) <= lvl1
    where = "C%d" % clause.index
    ctx = "c1=%d@%s c2=%d@%s" % (lit_to_int(c1), lvl1, lit_to_int(c2), lvl2)
    if c2_in_prefix:
        out.append(Violation(1, where, "both watches falsified in prefix; " + ctx))
    if not c2_sat:
        out.append(Violation(4, where, "watch falsified, other not satisfied; " + ctx))
    out.append(Violation(5, where, "other watch not satisfied at or below; " + ctx))
    if not lazy_ok:
        out.append(Violation(7, where, "no low satisfaction nor stored MLI; " + ctx))
