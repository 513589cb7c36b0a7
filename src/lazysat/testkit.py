"""Instance generators and the brute-force oracle.

``random_3sat`` and ``satlib_clause_count`` feed ``gen`` and ``bench``;
``brute_force`` is the independent DPLL that tests and the benchmark check
verdicts against.  The module imports nothing from the package but the
Formula type (a test checks this), so differential tests really compare
two implementations.  Test-only rigs and fixtures live in ``tests/``.
"""

from __future__ import annotations

import random

from .formula import Formula

# SATLIB uniform random 3-SAT family sizes (clauses per variable count).
SATLIB_COUNTS = {
    20: 91,
    50: 218,
    75: 325,
    100: 430,
    125: 538,
    150: 645,
    175: 753,
    200: 860,
    225: 960,
    250: 1065,
}


def satlib_clause_count(n):
    """Clause count for n-variable uniform random 3-SAT, SATLIB convention."""
    return SATLIB_COUNTS.get(n, round(4.26 * n))


def random_3sat(n, m, seed):
    """m clauses of 3 distinct, non-complementary literals over n >= 3 variables."""
    if n < 3:
        raise ValueError("random 3-SAT needs at least 3 variables, got %d" % n)
    if m < 0:
        raise ValueError("random 3-SAT needs a clause count of at least 0, got %d" % m)
    rng = random.Random(seed)
    formula = Formula(n)
    for _ in range(m):
        vs = []
        while len(vs) < 3:
            v = rng.randrange(1, n + 1)
            if v not in vs:
                vs.append(v)
        clause = [-v if rng.randrange(2) else v for v in vs]
        formula.add_clause(clause)
    return formula


# -- brute-force oracle ------------------------------------------------------


def brute_force(formula):
    """Exact satisfiability by plain DPLL (no learning, no watches).

    Counter-based unit propagation over occurrence lists: assigning a
    literal queues every clause it leaves with one free literal and none
    satisfied, and propagation works through only those.  Branches on the
    first unassigned literal of the first unsatisfied clause.
    """
    if formula.trivially_unsat:
        return False
    n = formula.num_vars
    if n > 64:
        raise ValueError("instance too large for the brute-force oracle")
    clauses = [c.to_ints() for c in formula.clauses]
    occ_pos = [[] for _ in range(n + 1)]
    occ_neg = [[] for _ in range(n + 1)]
    for ci, c in enumerate(clauses):
        for x in c:
            (occ_pos if x > 0 else occ_neg)[abs(x)].append(ci)
    free = [len(c) for c in clauses]  # non-falsified literal counts
    nsat = [0] * len(clauses)  # satisfying assignment counts
    assign = [0] * (n + 1)  # 0 unassigned, +1 true, -1 false
    units = []  # clauses that became unit since the last fixpoint; rechecked when popped

    def set_lit(x, trail):
        v = abs(x)
        assign[v] = 1 if x > 0 else -1
        trail.append(x)
        sat_occ, false_occ = (occ_pos, occ_neg) if x > 0 else (occ_neg, occ_pos)
        for ci in sat_occ[v]:
            nsat[ci] += 1
        conflict = False
        for ci in false_occ[v]:
            free[ci] -= 1
            if nsat[ci] == 0:
                if free[ci] == 0:
                    conflict = True
                elif free[ci] == 1:
                    units.append(ci)
        return conflict

    def undo(trail, mark):
        # undo runs only on the way back to a propagated state, which has no unit clause
        units.clear()
        while len(trail) > mark:
            x = trail.pop()
            v = abs(x)
            assign[v] = 0
            sat_occ, false_occ = (occ_pos, occ_neg) if x > 0 else (occ_neg, occ_pos)
            for ci in sat_occ[v]:
                nsat[ci] -= 1
            for ci in false_occ[v]:
                free[ci] += 1

    def propagate(trail):
        while units:
            ci = units.pop()
            if nsat[ci] or free[ci] != 1:
                continue
            for x in clauses[ci]:
                if assign[abs(x)] == 0:
                    if set_lit(x, trail):
                        return True
                    break
        return False

    def pick():
        for ci, c in enumerate(clauses):
            if nsat[ci] == 0:
                for x in c:
                    if assign[abs(x)] == 0:
                        return x
        for v in range(1, n + 1):
            if assign[v] == 0:
                return v
        return 0

    def search():
        trail = []
        if propagate(trail):
            undo(trail, 0)
            return False
        x = pick()
        if x == 0:
            undo(trail, 0)
            return True
        for branch in (x, -x):
            mark = len(trail)
            if not set_lit(branch, trail) and search():
                undo(trail, 0)
                return True
            undo(trail, mark)
        undo(trail, 0)
        return False

    # Seed with unit clauses before any branching.
    trail = []
    for ci, c in enumerate(clauses):
        if len(c) == 1 and assign[abs(c[0])] == 0:
            if set_lit(c[0], trail):
                return False
    if propagate(trail):
        return False
    return search()
