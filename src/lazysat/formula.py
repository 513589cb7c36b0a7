"""CNF formulas: integer literal encoding, clause storage, DIMACS input and output.

Literals are encoded as ``2*var + sign`` (sign 1 = negated) so that watch
lists and per-literal tables can be flat lists indexed by the encoding.
The public entry points (``Formula.add_clause``, ``parse_dimacs``) speak
DIMACS-style signed integers; everything stored on a :class:`Clause` is
encoded.
"""

from __future__ import annotations

import re
from itertools import chain


def lit_to_int(lit: int) -> int:
    """Decode an encoded literal back to a signed integer."""
    v = lit >> 1
    return -v if lit & 1 else v


class Clause:
    """A stored disjunction with two watch slots.

    ``w0``/``w1`` hold the two watched literals, as MiniSat's watches do; unit
    clauses are never watched and hold ``lits[0]`` in both.  A ternary
    clause has a single replacement candidate, its literal sum minus both
    watches, so ``sum3`` stores that sum for a clause of three literals and
    0 for any other length; ``lits`` must not change after construction.
    ``search_pos`` is the rotating start index for the replacement scans of
    the other lengths.
    """

    __slots__ = ("lits", "w0", "w1", "learned", "index", "search_pos", "sum3")

    def __init__(self, lits, learned=False, index=-1):
        self.lits = lits
        self.w0 = lits[0]
        self.w1 = lits[1] if len(lits) > 1 else lits[0]
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


def _normalize(lits):
    """A clause's encoded literals with repeats dropped, first occurrence
    kept, or None when two of them are complementary (a tautology)."""
    out = list(dict.fromkeys(lits))
    seen = set(out)
    for lit in out:
        if lit ^ 1 in seen:
            return None
    return out


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
        raised, even in a clause that is dropped.  The literals then go
        through ``_normalize``: a clause with a complementary pair is never
        stored (returns None).  An empty clause marks the formula trivially
        unsatisfiable and also returns None.
        """
        lits = []
        for n in ints:
            v = -n if n < 0 else n
            if v == 0 or v > self.num_vars:
                raise ValueError("variable %d out of range 1..%d" % (v, self.num_vars))
            lits.append((v << 1) | (n < 0))
        lits = _normalize(lits)
        if lits is None:
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


# A line whose first token starts with 'c', 'p' or '%', found by the newline
# before it; the first line of a text is matched on its own by _FIRST_LINE.
# One pattern for both, '(?:^|\n)...', has no literal first character to
# search for and scans a 61 KB text about 7 times slower.
_SPECIAL_LINE = re.compile(r"\n[^\S\n]*([cp%])")
_FIRST_LINE = re.compile(r"[^\S\n]*([cp%])")
_CHUNK = 4096  # characters of a run split at once, rounded up to a whole line


def _header_vars(line, to_int):
    """The variable count of a 'p cnf VARS CLAUSES' line, or None when the
    line is malformed or either count is negative."""
    head = line.split()
    if len(head) != 4 or head[0] != "p" or head[1] != "cnf":
        return None
    try:
        nv = to_int(head[2])
        nc = to_int(head[3])
    except ValueError:
        return None
    return nv if nv >= 0 and nc >= 0 else None


def _token_line(text, start, stop, index):
    """Line of the index-th token of text[start:stop], a chunk of data lines
    or a header line from its 'p' on.  Every ``DimacsError`` line except a
    missing header's line 1 comes from here."""
    line = text.count("\n", 0, start) + 1
    for k, piece in enumerate(text[start:stop].split("\n")):
        n = len(piece.split())
        if index < n:
            return line + k
        index -= n
    raise AssertionError("token index beyond its chunk")


def parse_dimacs(text: str) -> Formula:
    """Parse DIMACS CNF text into a normalized Formula.

    Lines end at a newline only; other whitespace, carriage returns
    included, separates tokens.  Comment lines start with 'c'; a line
    starting with '%' ends the input (SATLIB trailer convention).  Header
    counts and literals are ASCII decimal integers with an optional sign,
    and each clause, which may span lines, ends at 0.  Every literal is
    range-checked as it is read; repeats collapse, a clause with a
    complementary pair is dropped, and an empty clause marks the formula
    trivially unsatisfiable, as ``Formula.add_clause`` does.  The header's
    clause count is not enforced.

    Compiled patterns find the header, comment and '%' lines; the data
    lines between two of them form a run, so a text without comments is
    one run.  A run is split into tokens a chunk at a time, whole lines of
    at least ``_CHUNK`` characters unless the run ends first, and each
    chunk is decoded in one flat loop; only one chunk's tokens are held at
    once.  Each distinct token spelling is converted and checked once per
    call: a table maps each spelling that has passed to its encoded literal
    (0 for a terminator), so ``3``, ``+3`` and ``03`` each take one entry
    and decode alike.  The table is fresh per call and grows with the
    distinct tokens of the text, never with the declared variable count.

    At a clause's 0, a clause of three literals compares its variables
    pairwise; any other length, or a three-literal clause with a repeated
    variable, goes through ``_normalize``, which ``add_clause`` shares.

    Line numbers are derived only when raising, each as the line of one
    token.  A token enters the table only after its checks pass, so a
    failing token is at its spelling's first place in its chunk, and is
    reported at that line.  Data before the header is reported at its
    chunk's first token, a duplicate or malformed header at its 'p', and a
    missing terminating 0 at the last data token read.
    """
    # int() also reads '1_2' and non-ASCII digits such as '\uff13'.  Text that
    # passes this screen holds neither; in other text each token is checked.
    to_int = int if text.isascii() and "_" not in text else _decimal
    formula = None
    top = 0  # largest encoded literal in range, set by the header
    codes = {}  # token spelling -> encoded literal (0 = terminator), once checked
    code = codes.get
    lits = []
    first = _FIRST_LINE.match(text)
    end = len(text)  # where the input stops: its end or a '%' line
    pos = 0  # start of the current run
    for m in chain((first,) if first else (), _SPECIAL_LINE.finditer(text), (None,)):
        stop = m.start() if m else end
        while pos < stop:
            # whole lines, cut at the first newline _CHUNK characters on
            cut = text.find("\n", pos + _CHUNK, stop)
            if cut < 0:
                cut = stop
            toks = text[pos:cut].split()
            if toks:
                if formula is None:
                    line = _token_line(text, pos, cut, 0)
                    raise DimacsError("clause data before 'p cnf' header", line)
                last = (pos, cut, len(toks) - 1)  # the chunk of the last data token read
            for tok in toks:
                lit = code(tok)
                if lit is None:
                    try:
                        n = to_int(tok)
                    except ValueError:
                        line = _token_line(text, pos, cut, toks.index(tok))
                        raise DimacsError("non-integer token %r" % tok, line) from None
                    lit = (n + n if n > 0 else 1 - n - n) if n else 0
                    if lit > top:
                        line = _token_line(text, pos, cut, toks.index(tok))
                        raise DimacsError("literal %d exceeds declared %d variables" % (n, nv), line)
                    codes[tok] = lit
                if lit:
                    lits.append(lit)
                    continue
                if len(lits) == 3:
                    a, b, c = lits
                    if (a ^ b) < 2 or (a ^ c) < 2 or (b ^ c) < 2:
                        lits = _normalize(lits)
                else:
                    lits = _normalize(lits)
                if lits:
                    clauses.append(Clause(lits, False, len(clauses)))
                elif lits is not None:
                    formula.trivially_unsat = True
                lits = []
            pos = cut
        if m is None:
            break
        kind = m.group(1)
        if kind == "%":
            break
        pos = text.find("\n", m.end())
        if pos < 0:
            pos = end
        if kind == "c":
            continue
        head = m.start(1)
        if formula is not None:
            raise DimacsError("duplicate 'p cnf' header", _token_line(text, head, pos, 0))
        raw = text[head:pos]
        nv = _header_vars(raw, to_int)
        if nv is None:
            raise DimacsError("malformed header %r" % raw.strip(), _token_line(text, head, pos, 0))
        formula = Formula(nv)
        clauses = formula.clauses
        top = 2 * nv + 1
    if formula is None:
        # every line before the end was blank or a comment, or it would have
        # been a header or raised as clause data before one
        raise DimacsError("missing 'p cnf' header", 1)
    if lits:
        raise DimacsError("missing terminating 0", _token_line(text, *last))
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
