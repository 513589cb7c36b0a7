import random

import pytest

from lazysat.formula import (
    DimacsError,
    Formula,
    lit_from_int,
    lit_to_int,
    parse_dimacs,
    write_dimacs,
)


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
