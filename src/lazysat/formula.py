"""CNF formulas: integer literal encoding, clause storage, DIMACS input and output.

Literals are encoded as ``2*var + sign`` (sign 1 = negated) so that watch
lists and per-literal tables can be flat lists indexed by the encoding.
The public entry points (``Formula.add_clause``, ``parse_dimacs``) speak
DIMACS-style signed integers; everything stored on a :class:`Clause` is
encoded.
"""

from __future__ import annotations


def lit_from_int(n: int) -> int:
    """Encode a DIMACS-style signed literal."""
    v = -n if n < 0 else n
    return (v << 1) | (n < 0)


def lit_to_int(lit: int) -> int:
    """Decode an encoded literal back to a signed integer."""
    v = lit >> 1
    return -v if lit & 1 else v


class Clause:
    """A stored disjunction with two watch slots and an optional blocker.

    ``w0``/``w1`` hold the two watched literals, as MiniSat's watches do; unit
    clauses are never watched and hold ``lits[0]`` in both.  ``search_pos``
    is the rotating start index for replacement scans during propagation;
    only clauses longer than three use it, since a ternary clause has a
    single candidate.
    """

    __slots__ = ("lits", "w0", "w1", "blocker", "learned", "index", "search_pos")

    def __init__(self, lits, learned=False, index=-1):
        self.lits = lits
        self.w0 = lits[0]
        self.w1 = lits[1] if len(lits) > 1 else lits[0]
        self.blocker = 0  # encoded literal, 0 = unset
        self.learned = learned
        self.index = index
        self.search_pos = 0

    def to_ints(self):
        return [lit_to_int(x) for x in self.lits]

    def __repr__(self):
        kind = "L" if self.learned else "C"
        return "%s%d(%s)" % (kind, self.index, " ".join(str(i) for i in self.to_ints()))


class DimacsError(ValueError):
    """Malformed DIMACS input; carries the offending line number."""

    def __init__(self, message, line):
        super().__init__("line %d: %s" % (line, message))
        self.line = line


class Formula:
    """A conjunctive clause set with stable clause references.

    Clause objects stay valid across learned-clause insertion.  Unit
    clauses are never watched; the solver assigns them at level 0 with the
    clause itself as reason.
    """

    def __init__(self, num_vars=0):
        self.num_vars = num_vars
        self.clauses: list[Clause] = []
        self.trivially_unsat = False

    def add_clause(self, ints):
        """Store a clause given as signed integers and return its reference.

        Duplicate literals collapse; a clause containing a complementary
        pair is a tautology and is never stored (returns None).  An empty
        clause marks the formula trivially unsatisfiable and also returns
        None.
        """
        seen = set()
        lits = []
        for n in ints:
            v = -n if n < 0 else n
            if v == 0 or v > self.num_vars:
                raise ValueError("variable %d out of range 1..%d" % (v, self.num_vars))
            lit = (v << 1) | (n < 0)
            if lit ^ 1 in seen:
                return None
            if lit not in seen:
                seen.add(lit)
                lits.append(lit)
        if not lits:
            self.trivially_unsat = True
            return None
        return self.store(lits)

    def store(self, lits, learned=False):
        """Append a clause given as encoded literals, which must be distinct,
        in range and free of complementary pairs, and return its reference."""
        clauses = self.clauses
        clause = Clause(lits, learned, len(clauses))
        clauses.append(clause)
        return clause

    def copy(self):
        """Fresh Formula with only the original clauses.

        Solving mutates watches and appends learned clauses, so each solve
        of one input needs its own copy.
        """
        out = Formula(self.num_vars)
        out.trivially_unsat = self.trivially_unsat
        for clause in self.clauses:
            if not clause.learned:
                out.store(list(clause.lits))
        return out


def parse_dimacs(text: str) -> Formula:
    """Parse DIMACS CNF text into a normalized Formula.

    Comment lines start with 'c'; a line starting with '%' ends the input
    (SATLIB trailer convention).  Each clause block is terminated by 0.
    """
    formula = None
    pending = []
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "c":
            continue
        if line[0] == "%":
            break
        last_line = lineno
        if line[0] == "p":
            if formula is not None:
                raise DimacsError("duplicate 'p cnf' header", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError("malformed header %r" % line, lineno)
            try:
                nv = int(parts[2])
                nc = int(parts[3])
            except ValueError:
                raise DimacsError("malformed header %r" % line, lineno) from None
            if nv < 0 or nc < 0:
                raise DimacsError("malformed header %r" % line, lineno)
            formula = Formula(nv)
            continue
        if formula is None:
            raise DimacsError("clause data before 'p cnf' header", lineno)
        for tok in line.split():
            try:
                n = int(tok)
            except ValueError:
                raise DimacsError("non-integer token %r" % tok, lineno) from None
            if n == 0:
                formula.add_clause(pending)
                pending = []
            else:
                if abs(n) > formula.num_vars:
                    raise DimacsError(
                        "literal %d exceeds declared %d variables" % (n, formula.num_vars),
                        lineno,
                    )
                pending.append(n)
    if formula is None:
        raise DimacsError("missing 'p cnf' header", max(last_line, 1))
    if pending:
        raise DimacsError("missing terminating 0", last_line)
    return formula


def write_dimacs(formula: Formula) -> str:
    """Serialize all stored clauses back to DIMACS (normalized form).

    Empty clauses are not stored, only recorded as ``trivially_unsat``;
    such a formula ends in one empty clause, so it stays unsatisfiable.
    """
    empty = ["0"] if formula.trivially_unsat else []
    out = ["p cnf %d %d" % (formula.num_vars, len(formula.clauses) + len(empty))]
    for clause in formula.clauses:
        out.append(" ".join(str(i) for i in clause.to_ints()) + " 0")
    return "\n".join(out + empty) + "\n"
