import random
import tracemalloc

import pytest

import lazysat.formula as formula_module
from lazysat.formula import (
    DimacsError,
    Formula,
    lit_to_int,
    parse_dimacs,
    write_dimacs,
)
from lazysat.testkit import random_3sat
from support import lit_from_int, reference_parse_dimacs


def units(formula):
    """The stored unit clauses, which the solver asserts at level 0."""
    return [c for c in formula.clauses if len(c.lits) == 1]


def test_literal_encoding_roundtrip():
    for n in (1, -1, 7, -7, 123, -123):
        lit = lit_from_int(n)
        assert lit_to_int(lit) == n
        assert lit ^ 1 ^ 1 == lit
        assert (lit ^ 1) >> 1 == lit >> 1
        assert ((lit ^ 1) & 1) != (lit & 1)


def test_parse_basic():
    f = parse_dimacs("p cnf 3 2\n1 -2 0\n-1 3 0\n")
    assert f.num_vars == 3
    assert [c.to_ints() for c in f.clauses] == [[1, -2], [-1, 3]]
    assert not f.trivially_unsat
    assert units(f) == []


def test_parse_comment_and_root_unit():
    f = parse_dimacs("c comment\np cnf 1 1\n1 0\n")
    assert f.num_vars == 1
    assert len(units(f)) == 1
    assert units(f)[0].to_ints() == [1]
    # size-1 clauses are never watched
    assert sum(1 for c in f.clauses if len(c.lits) >= 2) == 0


def test_parse_empty_clause_is_trivially_unsat():
    f = parse_dimacs("p cnf 1 1\n0\n")
    assert f.trivially_unsat


def test_parse_errors_carry_line_numbers():
    with pytest.raises(DimacsError) as exc:
        parse_dimacs("p cnf x 2\n")
    assert exc.value.line == 1
    with pytest.raises(DimacsError) as exc:
        parse_dimacs("p cnf 2 1\n1 3 0\n")
    assert exc.value.line == 2
    with pytest.raises(DimacsError) as exc:
        parse_dimacs("p cnf 2 1\n1 2\n")
    assert exc.value.line == 2
    with pytest.raises(DimacsError) as exc:
        parse_dimacs("p cnf 2 1\n1 q 0\n")
    assert exc.value.line == 2
    with pytest.raises(DimacsError):
        parse_dimacs("1 2 0\n")


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("p cnf 2 1\np cnf 2 1\n1 0\n", 2, "duplicate 'p cnf' header"),
        ("p cnf 2\n", 1, "malformed header 'p cnf 2'"),
        ("p dnf 2 1\n", 1, "malformed header 'p dnf 2 1'"),
        ("p cnf 2 y\n", 1, "malformed header 'p cnf 2 y'"),
        ("p cnf -2 1\n", 1, "malformed header 'p cnf -2 1'"),
        ("c no header\n", 1, "missing 'p cnf' header"),
        ("", 1, "missing 'p cnf' header"),
    ],
)
def test_parse_header_errors(text, line, message):
    with pytest.raises(DimacsError) as exc:
        parse_dimacs(text)
    assert exc.value.line == line
    assert str(exc.value) == "line %d: %s" % (line, message)


def test_parse_satlib_trailer():
    f = parse_dimacs("p cnf 2 1\n1 2 0\n%\n0\n")
    assert len(f.clauses) == 1
    assert not f.trivially_unsat


def test_add_clause_stores_watches_on_first_two():
    f = Formula(5)
    c = f.add_clause([2, 3, -5])
    assert c.to_ints() == [2, 3, -5]
    assert c.w0 == lit_from_int(2)
    assert c.w1 == lit_from_int(3)


def test_add_clause_tautology_skipped():
    f = Formula(2)
    assert f.add_clause([1, -1]) is None
    assert f.clauses == []
    assert not f.trivially_unsat


def test_add_clause_duplicate_collapses_to_root_unit():
    f = Formula(2)
    c = f.add_clause([1, 1])
    assert c.to_ints() == [1]
    assert units(f) == [c]


def test_add_clause_rejects_out_of_range():
    f = Formula(2)
    with pytest.raises(ValueError):
        f.add_clause([3])


def test_clause_references_stable_across_learned_insertion():
    f = Formula(4)
    refs = [f.add_clause([1, 2]), f.add_clause([-1, 3])]
    for i in range(50):
        f.store([lit_from_int(2), lit_from_int(3), lit_from_int(4)], learned=True)
    assert f.clauses[0] is refs[0] and f.clauses[1] is refs[1]


def test_watch_slots_distinct_for_watched_clauses():
    rng = random.Random(11)
    f = Formula(10)
    for _ in range(100):
        size = rng.randint(2, 5)
        ints = []
        while len(ints) < size:
            v = rng.randint(1, 10)
            n = v if rng.random() < 0.5 else -v
            ints.append(n)
        f.add_clause(ints)
    for c in f.clauses:
        if len(c.lits) >= 2:
            assert c.w0 != c.w1
            assert c.w0 in c.lits and c.w1 in c.lits


def test_dimacs_roundtrip_on_normalized_form():
    rng = random.Random(3)
    for trial in range(25):
        nv = rng.randint(1, 12)
        lines = ["p cnf %d %d" % (nv, 0)]
        clauses = rng.randint(0, 20)
        for _ in range(clauses):
            size = rng.randint(0, 4)  # 0: an empty clause, stored as trivially_unsat
            ints = [rng.choice([-1, 1]) * rng.randint(1, nv) for _ in range(size)]
            lines.append(" ".join(map(str, ints)) + " 0")
        text = "\n".join(lines) + "\n"
        f1 = parse_dimacs(text)
        out = write_dimacs(f1)
        f2 = parse_dimacs(out)
        assert f1.num_vars == f2.num_vars
        assert [c.to_ints() for c in f1.clauses] == [c.to_ints() for c in f2.clauses]
        assert [c.to_ints() for c in units(f1)] == [c.to_ints() for c in units(f2)]
        assert f1.trivially_unsat == f2.trivially_unsat
        assert out == write_dimacs(f2)


def test_add_clause_checks_range_before_dropping_a_tautology():
    for ints in ([1, -1, 99], [1, -1, 0], [-2, 2, -3]):
        f = Formula(2)
        with pytest.raises(ValueError, match="out of range 1..2"):
            f.add_clause(ints)
        assert f.clauses == []
        assert not f.trivially_unsat


# -- line and token form ---------------------------------------------------------

# Characters that str.splitlines() breaks at but DIMACS lines do not: inside a
# line each is whitespace, which str.split() and str.strip() skip.
NOT_LINE_ENDS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("ch", NOT_LINE_ENDS)
def test_parse_lines_end_at_newline_only(ch):
    with pytest.raises(DimacsError) as exc:
        parse_dimacs("c caf\u00e9%s note\np cnf 2 1\n1 3 0\n" % ch)
    assert str(exc.value) == "line 3: literal 3 exceeds declared 2 variables"
    # On a line of its own the character is blank space and shifts no number.
    with pytest.raises(DimacsError) as exc:
        parse_dimacs("p cnf 2 1\n%s\n1 3 0\n" % ch)
    assert exc.value.line == 3
    f = parse_dimacs("p cnf 2 1\n1%s-2 0%s\n" % (ch, ch))
    assert [c.to_ints() for c in f.clauses] == [[1, -2]]


@pytest.mark.parametrize(
    "text, message",
    [
        ("p cnf 20 1\n1_2 0\n", "line 2: non-integer token '1_2'"),
        ("p cnf 3 1\n1 \uff13 0\n", "line 2: non-integer token '\uff13'"),
        ("p cnf 3 1\n\u0663 0\n", "line 2: non-integer token '\u0663'"),
        ("p cnf 3 1\n1 2 -3 0 -_1 0\n", "line 2: non-integer token '-_1'"),
        ("p cnf 1_0 1\n1 0\n", "line 1: malformed header 'p cnf 1_0 1'"),
        ("p cnf 3 1_0\n1 0\n", "line 1: malformed header 'p cnf 3 1_0'"),
        ("c x\np cnf \uff13 1\n1 0\n", "line 2: malformed header 'p cnf \uff13 1'"),
    ],
)
def test_parse_accepts_only_ascii_decimal_tokens(text, message):
    with pytest.raises(DimacsError) as exc:
        parse_dimacs(text)
    assert str(exc.value) == message


def test_parse_checks_each_token_of_unscreened_text():
    # The screen fails on these texts, so each token is checked on its own.
    f = parse_dimacs("c caf\u00e9 snake_case\np cnf 3 2\n+1 -2 -0\n 3 00\n")
    assert [c.to_ints() for c in f.clauses] == [[1, -2], [3]]
    with pytest.raises(DimacsError) as exc:
        parse_dimacs("c \u00e9\np cnf 3 1\n1 4 \uff13 0\n")
    assert str(exc.value) == "line 3: literal 4 exceeds declared 3 variables"


def test_parse_memory_follows_the_text_not_the_header():
    # the token table holds the text's distinct spellings; nothing is sized
    # by the declared variable count (about 1.6 KB peak measured here)
    tracemalloc.start()
    try:
        f = parse_dimacs("p cnf 10000000 1\n1 -2 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.num_vars == 10_000_000
    assert [c.to_ints() for c in f.clauses] == [[1, -2]]
    assert peak < 64 * 1024


def test_parse_spellings_of_one_literal_decode_alike():
    f = parse_dimacs("p cnf 3 4\n3 +3 03 0\n-3 -03 0\n+03 -1 0\n1 -003 2 0\n")
    assert [c.to_ints() for c in f.clauses] == [[3], [-3], [3, -1], [1, -3, 2]]
    assert f.clauses[0].lits == [lit_from_int(3)]
    f = parse_dimacs("p cnf 3 2\n1 +2 0\n-1 00 2 -0\n3 0\n")
    assert [c.to_ints() for c in f.clauses] == [[1, 2], [-1], [2], [3]]


def test_parse_keeps_no_token_table_between_calls():
    # '4' passes the range check under 5 declared variables, not under 3
    assert parse_dimacs("p cnf 5 1\n4 -4 1 0\n4 0\n").clauses[0].to_ints() == [4]
    with pytest.raises(DimacsError) as exc:
        parse_dimacs("p cnf 3 1\n1 0\n4 0\n")
    assert str(exc.value) == "line 3: literal 4 exceeds declared 3 variables"


@pytest.mark.parametrize(
    "text, message",
    [
        ("p cnf 3 3\n1 -2 3 0\n-1 2 -3 0\n3 -2 1 x 0\n", "line 4: non-integer token 'x'"),
        (
            "p cnf 3 3\n1 -2 3 0\n-1 2 -3 0\n3 -2 +4 0\n",
            "line 4: literal 4 exceeds declared 3 variables",
        ),
        (
            "p cnf 3 3\n1 -2 3 0\n\n-1 2 0\nc 4\n2 3 -4 0\n",
            "line 6: literal -4 exceeds declared 3 variables",
        ),
        ("p cnf 3 3\n1 -2 3 0\n1 -2\n3 0 03 1.0 0\n", "line 4: non-integer token '1.0'"),
        # first seen in a run after a comment line, inside a clause that spans lines
        ("p cnf 3 2\n1 2 0\nc note\n\n3 -1\n2 x 0\n", "line 6: non-integer token 'x'"),
        ("p cnf 3 2\n1 2\nc note\n-1\n\n 3 -4 0\n", "line 6: literal -4 exceeds declared 3 variables"),
        ("p cnf 3 2\nc a\n1 2 0\n3\nc b\n\n1 q\n0\n", "line 7: non-integer token 'q'"),
        ("p cnf 3 2\n1 2\n c note\n3\n-1 2 0 4 0\n", "line 5: literal 4 exceeds declared 3 variables"),
        ("p cnf 3 1\n1 2 0\n-3\nc x\n\n%\n0\n", "line 3: missing terminating 0"),
        ("p cnf 3 1\n1 2 0\n-3 c\n\t% end\n0\n", "line 3: non-integer token 'c'"),
        # a missing 0 is at the last data token read, before blank and comment lines
        ("p cnf 3 1\n1 2 0\n-3\n2\n\n\tc tail\n\n", "line 4: missing terminating 0"),
        ("p cnf 3 2\n1 2 0\n-1\n2\n\n3\n\n\n", "line 6: missing terminating 0"),
        # a header error is at the header's 'p'
        ("c a\nc b\n  p cnf 3 1\n1 0\n\t p cnf 3 1\n", "line 5: duplicate 'p cnf' header"),
        ("c a\n c b\n\t p cnf 3 x\n1 0\n", "line 3: malformed header 'p cnf 3 x'"),
    ],
)
def test_parse_bad_token_after_good_ones_keeps_its_line(monkeypatch, text, message):
    # the good tokens before it are in the token table by then, and its
    # line is derived from the run of data lines that holds it; a chunk of
    # 1 character also cuts every run at each line, so the last data token
    # can lie chunks before the end
    for chunk in (formula_module._CHUNK, 1):
        monkeypatch.setattr(formula_module, "_CHUNK", chunk)
        for parse in (parse_dimacs, reference_parse_dimacs):
            with pytest.raises(DimacsError) as exc:
                parse(text)
            assert str(exc.value) == message


def test_parse_long_clause_with_repeats():
    nv = 50_000
    rng = random.Random(19)
    ints = [v if rng.random() < 0.5 else -v for v in range(1, nv + 1)] * 2
    rng.shuffle(ints)
    lines = [" ".join(map(str, ints[i : i + 997])) for i in range(0, len(ints), 997)]
    want = list(dict.fromkeys(lit_from_int(n) for n in ints))
    f = parse_dimacs("p cnf %d 1\n%s 0\n" % (nv, "\n".join(lines)))
    assert [(c.lits, c.index) for c in f.clauses] == [(want, 0)]
    assert Formula(nv).add_clause(ints).lits == want
    f = parse_dimacs("p cnf %d 1\n%s %d 0\n" % (nv, "\n".join(lines), -ints[-1]))
    assert f.clauses == []
    assert not f.trivially_unsat


def wide_clause_text(num_vars, num_clauses, width, seed):
    """DIMACS text of random clauses of ``width`` distinct variables."""
    rng = random.Random(seed)
    lines = ["p cnf %d %d" % (num_vars, num_clauses)]
    for _ in range(num_clauses):
        vs = rng.sample(range(1, num_vars + 1), width)
        lines.append(" ".join(str(v if rng.random() < 0.5 else -v) for v in vs) + " 0")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "make_text, num_clauses",
    [
        (lambda: write_dimacs(random_3sat(1500, 3750, 0)), 3750),
        (lambda: wide_clause_text(1500, 2000, 40, 0), 2000),
    ],
    ids=["3-literal", "40-literal"],
)
def test_parse_peak_memory_stays_below_twice_the_formula(make_text, num_clauses):
    # a text without comments is one run, split a chunk of lines at a time;
    # splitting a whole run at once peaked at 1.8x (3-literal) and 5.6x
    # (40-literal), and per chunk at about 1.3x for both, measured
    text = make_text()
    tracemalloc.start()
    try:
        f = parse_dimacs(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(f.clauses) == num_clauses
    assert peak < 2 * retained


# -- differential check against the reference reader ---------------------------

BAD_TOKENS = ["q", "1.5", "--1", "+-2", "0x1", "-", "1e2", "2a"]


def fuzz_dimacs(rng):
    """A DIMACS-like text, its declared variable count, the signed clauses it
    states before any '%', and whether a clause spans lines.

    Texts mix comments, blank lines, multi-line clauses, several clauses per
    line, repeated and complementary literals, empty clauses, '+' signs,
    '%' trailers, CRLF line ends, bad tokens, out-of-range literals and
    header faults; about half of them parse.
    """
    nv = rng.randint(0, 9)
    clauses = []
    for _ in range(rng.randint(0, 7)):
        clause = []
        for _ in range(rng.choice((0, 1, 2, 3, 3, 3, 4, 6))):
            r = rng.random()
            if clause and r < 0.1:
                clause.append(rng.choice(clause))
            elif clause and r < 0.15:
                clause.append(-rng.choice(clause))
            elif nv:
                clause.append(rng.choice((-1, 1)) * rng.randint(1, nv))
        clauses.append(clause)
    tokens = []  # (token, clauses complete once it is read)
    for k, clause in enumerate(clauses, start=1):
        for n in clause:
            r = rng.random()
            if r < 0.015:
                tokens.append((rng.choice(BAD_TOKENS), k - 1))
            elif r < 0.03:
                tokens.append((str(rng.choice((-1, 1)) * (nv + rng.randint(1, 3))), k - 1))
            tokens.append(("+%d" % n if n > 0 and r > 0.95 else str(n), k - 1))
        tokens.append((rng.choice(("0", "0", "0", "0", "-0", "00")), k))
    if tokens and rng.random() < 0.04:
        tokens.pop()  # the last clause lacks its terminating 0
        clauses.pop()
    lines = []  # (text, clauses complete at its end)
    spans = False
    while tokens:
        take = rng.randint(1, 6)
        chunk, tokens = tokens[:take], tokens[take:]
        done = chunk[-1][1]
        spans = spans or bool(tokens) and chunk[-1][0] not in ("0", "-0", "00")
        sep = rng.choice((" ", " ", "  ", "\t"))
        pad = rng.choice(("", "", "", " ", "\t"))
        lines.append((pad + sep.join(t for t, _ in chunk) + pad, done))
        if rng.random() < 0.1:
            lines.append((rng.choice(("c", "c 1 2 0", "", "  ", "c p cnf 1 1")), done))
    header = "p cnf %d %d" % (nv, rng.randint(0, 9))
    r = rng.random()
    if r < 0.06:
        header = rng.choice(
            (
                "p cnf %d" % nv,
                "p dnf %d 1" % nv,
                "p cnf -1 2",
                "p cnf 2 -1",
                "p cnf x 1",
                "p cnf %d 1 9" % nv,
                "pcnf %d 1" % nv,
                "p  cnf\t%d  1" % nv,
                "p cnf +%d 01" % nv,
            )
        )
    at = rng.randint(0, len(lines)) if r > 0.97 else 0  # clause data before the header
    lines.insert(at, (header, lines[at - 1][1] if at else 0))
    if 0.06 <= r < 0.1:
        del lines[at]  # no header at all
    elif r > 0.95:
        lines.insert(rng.randint(at + 1, len(lines)), ("p cnf %d 1" % nv, 0))
    if rng.random() < 0.3:
        lines.insert(0, ("c " + rng.choice(("comment", "1 0", "x", "")), 0))
    stated = len(clauses)
    if lines and rng.random() < 0.15:
        cut = rng.randint(0, len(lines))
        stated = lines[cut - 1][1] if cut else 0
        lines.insert(cut, (rng.choice(("%", "%%", "% end")), stated))
        lines.insert(cut + 1, ("0", stated))
        lines.insert(cut + 2, ("junk", stated))
    eol = "\r\n" if rng.random() < 0.2 else "\n"
    text = eol.join(t for t, _ in lines) + (eol if rng.random() < 0.8 else "")
    return text, nv, clauses[:stated], spans


def snapshot(f):
    clauses = [(c.lits, c.w0, c.w1, c.index, c.learned) for c in f.clauses]
    return (f.num_vars, clauses, f.trivially_unsat)


def parse_outcome(parse, text):
    try:
        return snapshot(parse(text))
    except Exception as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "line", None))


@pytest.mark.parametrize(
    "clause",
    ["1 1 2", "1 2 1", "2 1 1", "1 -1 2", "1 2 -1", "2 1 -1", "1 1", "1 -1", "3 1 -2 1", "3 1 -2 -3"],
)
def test_parse_short_clause_check_matches_reference(clause):
    # every place a repeated or complementary pair can sit in a clause of
    # two or three literals, and a longer clause with each kind of pair
    text = "p cnf 3 3\n2 -3 0\n%s 0\n-1 -2 3 0\n" % clause
    assert parse_outcome(parse_dimacs, text) == parse_outcome(reference_parse_dimacs, text)


def test_parse_matches_reference_reader_on_fuzz_corpus():
    rng = random.Random(47)
    messages = set()
    parsed = tautologies = repeats = unsat = multiline = 0
    for _ in range(4000):
        text, nv, stated, spans = fuzz_dimacs(rng)
        got = parse_outcome(parse_dimacs, text)
        assert got == parse_outcome(reference_parse_dimacs, text), text
        if got[0] == "DimacsError":
            # the message's first two words, without a literal's number
            messages.add(" ".join(w for w in got[1].split()[2:4] if not w.lstrip("-").isdigit()))
            continue
        parsed += 1
        # add_clause, clause by clause, agrees with the one-pass reader.
        f = Formula(nv)
        for clause in stated:
            f.add_clause(clause)
        assert snapshot(f) == got, text
        tautologies += any(-n in c for c in stated for n in c)
        repeats += any(len(set(c)) < len(c) for c in stated)
        unsat += got[2]
        multiline += spans
    assert 1500 < parsed < 3500
    assert min(tautologies, repeats, unsat, multiline) >= 50
    assert messages == {
        "duplicate 'p",
        "malformed header",
        "missing 'p",
        "missing terminating",
        "clause data",
        "non-integer token",
        "literal",
    }


def padded_fuzz_dimacs(rng):
    """``fuzz_dimacs``'s text with some comment, header and '%' lines
    indented by blanks and tabs, which the generator never does."""
    text, nv, stated, spans = fuzz_dimacs(rng)
    lines = text.split("\n")
    padded = 0
    for k, line in enumerate(lines):
        toks = line.split()
        if toks and toks[0][0] in "cp%" and rng.random() < 0.6:
            lines[k] = rng.choice((" ", "\t", "  ", " \t ", "\t\t")) + line
            padded += 1
    return "\n".join(lines), nv, stated, padded


def test_parse_matches_reference_reader_on_padded_fuzz_corpus():
    rng = random.Random(83)
    parsed = padded_texts = 0
    for _ in range(2000):
        text, nv, stated, padded = padded_fuzz_dimacs(rng)
        got = parse_outcome(parse_dimacs, text)
        assert got == parse_outcome(reference_parse_dimacs, text), text
        padded_texts += padded > 0
        if got[0] == "DimacsError":
            continue
        parsed += 1
        f = Formula(nv)
        for clause in stated:
            f.add_clause(clause)
        assert snapshot(f) == got, text
    assert 700 < parsed < 1800
    assert padded_texts > 1000


@pytest.mark.parametrize("chunk", [1, 5, 16])
def test_parse_matches_reference_reader_when_runs_are_cut_into_chunks(monkeypatch, chunk):
    # fuzz texts are shorter than one real chunk; tiny chunks put chunk
    # boundaries inside spanning clauses, before bad tokens and before a
    # missing 0, and a chunk of 1 cuts a run at every line
    monkeypatch.setattr(formula_module, "_CHUNK", chunk)
    rng = random.Random(101 + chunk)
    for k in range(600):
        text = (padded_fuzz_dimacs if k % 2 else fuzz_dimacs)(rng)[0]
        assert parse_outcome(parse_dimacs, text) == parse_outcome(reference_parse_dimacs, text), text
