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
8  blocker variant              7 weakened by a low-enough satisfied blocker

The clause scan skips a clause whose watches are both unfalsified, and a
watch orientation whose other watch is satisfied at or below the falsified
one's level (that alone satisfies 1, 4, 5, 7 and 8), before it builds any
detail; the detail string is formatted only for a reported violation.

Checks are read-only, O(total clause size), and expect a quiescent state:
a pending conflict legitimately violates 4/5/7 on the conflicting clause
until backtracking and learned-clause installation finish.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import lit_to_int
from .state import FALSE, TRUE

ALL_INVARIANTS = (1, 2, 3, 4, 5, 6, 7, 8)


@dataclass
class Violation:
    invariant: int
    subject: str  # clause "C<i>" or literal rendered as a signed int
    detail: str

    def __repr__(self):
        return "Violation(inv=%d, %s: %s)" % (self.invariant, self.subject, self.detail)


def check(state, formula, invariant, blockers=False):
    """Evaluate one invariant; empty list iff it holds everywhere."""
    return check_ids(state, formula, (invariant,), blockers=blockers)


def check_ids(state, formula, ids, blockers=False):
    """Evaluate several invariants in one pass over clauses and trail."""
    out = []
    want = set(ids)
    inv1 = 1 in want
    inv4 = 4 in want
    inv5 = 5 in want
    inv7 = 7 in want
    inv8 = 8 in want and blockers  # not applicable without blocker maintenance
    val = state.val
    level = state.level
    pos = state.pos
    head = state.head

    if inv1 or inv4 or inv5 or inv7 or inv8:
        lazy_cl = state.lazy_cl
        for clause in formula.clauses:
            lits = clause.lits
            if len(lits) < 2:
                continue
            w0 = lits[clause.w0]
            w1 = lits[clause.w1]
            if val[w0] != FALSE and val[w1] != FALSE:
                continue  # neither watch is falsified
            for c1, c2 in ((w0, w1), (w1, w0)):
                if val[c1] != FALSE or pos[c1 >> 1] >= head:
                    continue  # ¬c1 not in the propagated prefix
                lvl1 = level[c1 >> 1]
                lvl2 = level[c2 >> 1]
                c2_sat = val[c2] == TRUE
                if c2_sat and lvl2 <= lvl1:
                    continue  # satisfied at or below: 1, 4, 5, 7 and 8 all hold
                lazy_ok = False
                if c2_sat and (inv7 or inv8):
                    mli = lazy_cl[c2 >> 1]
                    lazy_ok = mli is not None and state.residual_level(mli.lits, c2) <= lvl1
                f1 = inv1 and val[c2] == FALSE and pos[c2 >> 1] < head
                f4 = inv4 and not c2_sat
                f7 = inv7 and not lazy_ok
                f8 = inv8 and not lazy_ok
                if f8:
                    b = clause.blocker
                    f8 = not (b != 0 and val[b] == TRUE and level[b >> 1] <= lvl1)
                if not (f1 or f4 or inv5 or f7 or f8):
                    continue
                where = "C%d" % clause.index
                ctx = "c1=%d@%s c2=%d@%s" % (lit_to_int(c1), lvl1, lit_to_int(c2), lvl2)
                if f1:
                    out.append(Violation(1, where, "both watches falsified in prefix; " + ctx))
                if f4:
                    out.append(Violation(4, where, "watch falsified, other not satisfied; " + ctx))
                if inv5:
                    out.append(Violation(5, where, "other watch not satisfied at or below; " + ctx))
                if f7:
                    out.append(Violation(7, where, "no low satisfaction nor stored MLI; " + ctx))
                if f8:
                    out.append(Violation(8, where, "neither MLI cover nor blocker; " + ctx))

    if 2 in want or 3 in want:
        dec = set(state.decisions)
        for lit in state.trail:
            v = lit >> 1
            if lit in dec:
                continue
            reason = state.reason[v]
            if 2 in want:
                if reason is None:
                    out.append(Violation(2, str(lit_to_int(lit)), "non-decision without reason"))
                elif lit not in reason.lits:
                    out.append(
                        Violation(2, str(lit_to_int(lit)), "reason lacks the implied literal")
                    )
                else:
                    for x in reason.lits:
                        if x != lit and val[x ^ 1] != TRUE:
                            out.append(
                                Violation(
                                    2,
                                    str(lit_to_int(lit)),
                                    "reason literal %d not falsified" % lit_to_int(x),
                                )
                            )
            if 3 in want and reason is not None:
                p = pos[v]
                for x in reason.lits:
                    if x == lit:
                        continue
                    if val[x ^ 1] != TRUE or pos[x >> 1] > p:
                        out.append(
                            Violation(
                                3,
                                str(lit_to_int(lit)),
                                "reason literal %d not before it" % lit_to_int(x),
                            )
                        )

    if 6 in want:
        for v in range(1, state.num_vars + 1):
            clause = state.lazy_cl[v]
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


def state_hash(state, formula):
    """Order-sensitive digest of the live solver state, for purity checks."""
    clause_part = tuple(
        (c.index, c.w0, c.w1, c.blocker, c.search_pos, tuple(c.lits)) for c in formula.clauses
    )
    var_part = tuple(
        (
            state.level[v],
            state.pos[v],
            state.reason[v].index if state.reason[v] is not None else -1,
            state.lazy_cl[v].index if state.lazy_cl[v] is not None else -1,
            state.lazy_lvl[v],
        )
        for v in range(1, state.num_vars + 1)
    )
    return hash((tuple(state.trail), state.head, tuple(state.decisions), var_part, clause_part))
