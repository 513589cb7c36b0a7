"""CNF formulas: integer literal encoding, clause storage, DIMACS input and output.

Literals are encoded as ``2*var + sign`` (sign 1 = negated) so that watch
lists and per-literal tables can be flat lists indexed by the encoding.
The public entry points (``Formula.add_clause``, ``parse_dimacs``) speak
DIMACS-style signed integers; everything stored on a :class:`Clause` is
encoded.
"""

from __future__ import annotations


def lit_to_int(lit: int) -> int:
    """Decode an encoded literal back to a signed integer."""
    v = lit >> 1
    return -v if lit & 1 else v


class Clause:
    """A stored disjunction with two watch slots and an optional blocker.

    ``w0``/``w1`` hold the two watched literals, as MiniSat's watches do; unit
    clauses are never watched and hold ``lits[0]`` in both.  A ternary
    clause has a single replacement candidate, its literal sum minus both
    watches, so ``sum3`` stores that sum for a clause of three literals and
    0 for any other length; ``lits`` must not change after construction.
    ``search_pos`` is the rotating start index for the replacement scans of
    the other lengths.
    """

    __slots__ = ("lits", "w0", "w1", "blocker", "learned", "index", "search_pos", "sum3")

    def __init__(self, lits, learned=False, index=-1):
        self.lits = lits
        self.w0 = lits[0]
        self.w1 = lits[1] if len(lits) > 1 else lits[0]
        self.blocker = 0  # encoded literal, 0 = unset
        self.learned = learned
        self.index = index
        self.search_pos = 0
        self.sum3 = lits[0] + lits[1] + lits[2] if len(lits) == 3 else 0

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

        Every literal must name a variable in 1..num_vars, or ValueError is
        raised, even in a clause that is dropped.  Duplicate literals
        collapse; a clause containing a complementary pair is a tautology
        and is never stored (returns None).  An empty clause marks the
        formula trivially unsatisfiable and also returns None.
        """
        seen = set()
        lits = []
        tautology = False
        for n in ints:
            v = -n if n < 0 else n
            if v == 0 or v > self.num_vars:
                raise ValueError("variable %d out of range 1..%d" % (v, self.num_vars))
            lit = (v << 1) | (n < 0)
            if lit not in seen:
                tautology = tautology or lit ^ 1 in seen
                seen.add(lit)
                lits.append(lit)
        if tautology:
            return None
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
        clauses = out.clauses
        for clause in self.clauses:
            if not clause.learned:
                clauses.append(Clause(list(clause.lits), False, len(clauses)))
        return out


def _decimal(tok):
    """``int`` restricted to ASCII decimal digits with an optional sign."""
    if tok.isascii() and "_" not in tok:
        return int(tok)
    raise ValueError(tok)


def parse_dimacs(text: str) -> Formula:
    """Parse DIMACS CNF text into a normalized Formula, one pass per clause.

    Lines end at a newline only; other whitespace, carriage returns
    included, separates tokens.  Comment lines start with 'c'; a line
    starting with '%' ends the input (SATLIB trailer convention).  Header
    counts and literals are ASCII decimal integers with an optional sign,
    and each clause, which may span lines, ends at 0.  Every literal is
    range-checked and encoded as it is read; repeats collapse, a clause
    with a complementary pair is dropped, and an empty clause marks the
    formula trivially unsatisfiable, as ``Formula.add_clause`` does.  The
    header's clause count is not enforced.

    Each distinct token spelling is converted and checked once per call: a
    table maps each spelling that has passed to its encoded literal (0 for
    a terminator), so ``3``, ``+3`` and ``03`` each take one entry and
    decode alike.  The table is fresh per call and grows with the distinct
    tokens of the text, never with the declared variable count.  A token
    enters it only after its checks pass, so a bad token fails on its own
    line with the same message as without the table.
    """
    # int() also reads '1_2' and non-ASCII digits such as '\uff13'.  Text that
    # passes this screen holds neither; in other text each token is checked.
    to_int = int if text.isascii() and "_" not in text else _decimal
    formula = None
    top = 0  # largest encoded literal in range, set by the header
    codes = {}  # token spelling -> encoded literal (0 = terminator), once checked
    code = codes.get
    lits = []
    seen = set()
    tautology = False
    last_line = 0
    for lineno, raw in enumerate(text.split("\n"), start=1):
        toks = raw.split()
        if not toks:
            continue
        first = toks[0][0]
        if first == "c":
            continue
        if first == "%":
            break
        last_line = lineno
        if first == "p":
            if formula is not None:
                raise DimacsError("duplicate 'p cnf' header", lineno)
            if len(toks) != 4 or toks[0] != "p" or toks[1] != "cnf":
                raise DimacsError("malformed header %r" % raw.strip(), lineno)
            try:
                nv = to_int(toks[2])
                nc = to_int(toks[3])
            except ValueError:
                raise DimacsError("malformed header %r" % raw.strip(), lineno) from None
            if nv < 0 or nc < 0:
                raise DimacsError("malformed header %r" % raw.strip(), lineno)
            formula = Formula(nv)
            clauses = formula.clauses
            top = 2 * nv + 1
            continue
        if formula is None:
            raise DimacsError("clause data before 'p cnf' header", lineno)
        for tok in toks:
            lit = code(tok)
            if lit is None:
                try:
                    n = to_int(tok)
                except ValueError:
                    raise DimacsError("non-integer token %r" % tok, lineno) from None
                lit = (n + n if n > 0 else 1 - n - n) if n else 0
                if lit > top:
                    raise DimacsError("literal %d exceeds declared %d variables" % (n, nv), lineno)
                codes[tok] = lit
            if lit:
                if lit in seen:
                    continue
                if lit ^ 1 in seen:
                    tautology = True
                seen.add(lit)
                lits.append(lit)
            else:
                if tautology:
                    tautology = False
                elif lits:
                    clauses.append(Clause(lits, False, len(clauses)))
                else:
                    formula.trivially_unsat = True
                lits = []
                seen = set()
    if formula is None:
        raise DimacsError("missing 'p cnf' header", max(last_line, 1))
    if lits:
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
