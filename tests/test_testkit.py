import ast
import inspect
import itertools
import os
import pkgutil
import re

import pytest

import lazysat
import lazysat.testkit
from lazysat.cli import load_dimacs_dir
from lazysat.formula import Formula, lit_to_int, write_dimacs
from lazysat.solver import Solver, SolverConfig
from lazysat.testkit import brute_force, random_3sat, satlib_clause_count
from support import (
    LockstepRunner,
    entails,
    replay_trace,
    s1_formula,
    s1_replay,
    s2_formula,
    s2_replay,
    truth_table_sat,
)


def test_brute_force_trivial_cases():
    f = Formula(1)
    f.add_clause([1])
    assert brute_force(f) is True
    g = Formula(1)
    g.add_clause([1])
    g.add_clause([-1])
    assert brute_force(g) is False
    h = Formula(1)
    h.add_clause([])
    assert brute_force(h) is False  # trivially unsat, decided before any search
    with pytest.raises(ValueError):
        brute_force(Formula(65))


def test_brute_force_agrees_with_truth_table():
    for seed in range(40):
        f = random_3sat(8, 34, seed)
        assert brute_force(f) == truth_table_sat(f), seed


def test_s1_clause_set_is_satisfiable():
    f = s1_formula()
    f.add_clause([-3, -1])  # including the learned clause
    assert truth_table_sat(f) is True
    assert brute_force(f) is True


def test_entails_members_and_learned_unit():
    f = s2_formula()
    for c in f.clauses:
        assert entails(f, c.to_ints())
    assert entails(f, [2])  # the clause the analysis replay learns
    assert not entails(f, [3])


def test_random_3sat_deterministic():
    a = random_3sat(20, 91, 7)
    b = random_3sat(20, 91, 7)
    assert [c.to_ints() for c in a.clauses] == [c.to_ints() for c in b.clauses]
    assert len(a.clauses) == 91


def test_random_3sat_well_formed():
    f = random_3sat(9, 40, 123)
    for c in f.clauses:
        ints = c.to_ints()
        assert len(ints) == 3
        assert len({abs(x) for x in ints}) == 3


def test_satlib_clause_counts():
    assert satlib_clause_count(20) == 91
    assert satlib_clause_count(50) == 218
    assert satlib_clause_count(250) == 1065
    # generic sizes fall back to the 4.26 ratio
    assert satlib_clause_count(30) == round(4.26 * 30)
    assert abs(satlib_clause_count(37) / 37 - 4.26) < 0.02


def test_load_dimacs_dir(tmp_path):
    for i in range(3):
        f = random_3sat(10, 43, i)
        (tmp_path / ("inst%d.cnf" % i)).write_text(write_dimacs(f))
    (tmp_path / "ignored.txt").write_text("not a cnf")
    loaded = load_dimacs_dir(str(tmp_path))
    assert [name for name, _ in loaded] == ["inst0.cnf", "inst1.cnf", "inst2.cnf"]
    assert all(g.num_vars == 10 for _, g in loaded)


def test_s1_replay_matches_frozen_snapshots():
    out = s1_replay("lscb")
    assert out["first_conflict"].index == 1
    assert out["snap_first_conflict"] == {
        "trail": [1, 2, 3, 4],
        "levels": [1, 2, 3, 3],
        "reasons": [None, None, None, 0],
        "head": 2,
    }
    assert sorted(x for x in out["learned1"].lits) == sorted(
        x for x in out["rig"].formula.clauses[6].lits
    )
    assert out["snap_after_install"] == {
        "trail": [1, 2, -3],
        "levels": [1, 2, 1],
        "reasons": [None, None, 6],
        "head": 2,
    }
    assert out["second_conflict"].index == 4
    assert out["snap_second_conflict"] == {
        "trail": [1, 2, -3, 5, -6],
        "levels": [1, 2, 1, 1, 2],
        "reasons": [None, None, 6, 2, 5],
        "head": 3,
    }
    assert out["lazy_v2"].index == 3
    assert out["lazy_level_v2"] == 1
    assert out["snap_after_backtrack1"] == {
        "trail": [1, -3, 5, 2],
        "levels": [1, 1, 1, 1],
        "reasons": [None, 6, 2, 3],
        "head": 2,
    }
    assert out["third_conflict"].index == 4
    assert out["snap_third_conflict"] == {
        "trail": [1, -3, 5, 2, -6],
        "levels": [1, 1, 1, 1, 1],
        "reasons": [None, 6, 2, 3, 5],
        "head": 4,
    }


def test_s2_replay_matches_frozen_snapshots():
    out = s2_replay()
    assert out["snap_trail"] == {
        "trail": [-1, -2, -3, 4, -5, -6, 7],
        "levels": [1, 1, 2, 1, 2, 1, 2],
        "reasons": [None, 0, None, 6, 1, 2, 3],
        "head": 4,
    }
    assert out["conflict"].index == 4
    # the conflict is found without moving the head
    assert out["snap_conflict"]["head"] == 4


def test_lockstep_runner_shapes():
    f = random_3sat(14, 60, 21)
    out = LockstepRunner(f).run()
    assert out["mismatches"] == []
    assert out["conflicts1"] >= out["conflicts2"]
    assert out["synced_episodes"] >= 0


# Every event kind the README's trace section lists.
TRACE_KINDS = {"decide", "imply", "pop", "set_lazy", "backtrack", "reimply", "conflict"}
TRACE_KINDS |= {"resolve", "learn", "result"}


def test_trace_replay_reconstructs_final_trail():
    reimplications = 0
    kinds = set()
    refalsified = 0
    # seed 18 re-falsifies a learned clause under lscb with analyze 1, which
    # gives a null conflict clause.
    grid = itertools.product(("ncb", "wcb", "rscb", "lscb"), (2, 1), (False, True), (3, 9, 17, 18))
    for mode, analyze, minimize, seed in grid:
        events = []
        f = random_3sat(20, 91, seed)
        cfg = SolverConfig(mode, analyze, cb_threshold=1, minimize=minimize)
        s = Solver(f.copy(), cfg, trace=events.append)
        s.solve()
        reimplications += s.stats.reimplications
        trail, head = replay_trace(events)
        want = [(lit_to_int(x), s.state.level[x >> 1]) for x in s.state.trail]
        assert trail == want
        assert head == s.state.head
        kinds.update(e["kind"] for e in events)
        refalsified += any(e["kind"] == "conflict" and e["clause"] is None for e in events)
    assert reimplications > 0  # the soak must cover the reimply event path
    assert refalsified > 0
    assert kinds >= TRACE_KINDS
    with pytest.raises(ValueError):
        replay_trace([{"kind": "no-such-event"}])


def test_testkit_imports_only_formula_from_the_package():
    # The oracle must stay an independent code path: it may share the
    # Formula type with the solver and nothing else.
    with open(lazysat.testkit.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert {name for name in imported if name.startswith((".", "lazysat"))} == {".formula"}


def test_package_attributes_name_its_submodules():
    # A re-export named like its submodule would shadow it: ``import
    # lazysat.analyze as m`` would bind the function, not the module.
    for info in pkgutil.iter_modules(lazysat.__path__):
        __import__("lazysat." + info.name)
        assert inspect.ismodule(getattr(lazysat, info.name)), info.name


def test_readme_layout_lists_the_package_modules():
    # The Layout block names each module under src/lazysat/; a module added,
    # renamed or removed must be reflected there.
    package = os.path.dirname(lazysat.__file__)
    readme = os.path.join(os.path.dirname(os.path.dirname(package)), "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Layout", 1)[1].split("```")[1]
    listed = block.split("src/lazysat/", 1)[1].split("\ntests/", 1)[0]
    modules = {name for name in os.listdir(package) if name.endswith(".py")}
    modules -= {"__init__.py", "__main__.py"}
    assert set(re.findall(r"^\s+(\w+\.py)\s", listed, re.M)) == modules
