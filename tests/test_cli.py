import argparse
import json
import os
import re
import subprocess
import sys

import pytest

import lazysat
from lazysat.cli import build_parser, main
from lazysat.formula import DimacsError, parse_dimacs, write_dimacs
from lazysat.solver import Solver, SolverConfig
from lazysat.testkit import random_3sat
from support import s1_formula


def write_cnf(path, formula):
    path.write_text(write_dimacs(formula))
    return str(path)


def test_solve_sat_exit_code_and_output(tmp_path, capsys):
    path = write_cnf(tmp_path / "s1.cnf", s1_formula())
    code = main(["solve", path, "--mode", "lscb"])
    out = capsys.readouterr().out
    assert code == 10
    assert "s SATISFIABLE" in out
    vline = [l for l in out.splitlines() if l.startswith("v ")]
    assert len(vline) == 1 and vline[0].endswith(" 0")
    # the printed model satisfies every clause
    model = {abs(int(x)): int(x) > 0 for x in vline[0][2:].split() if x != "0"}
    for c in s1_formula().clauses:
        assert any(model[abs(x)] == (x > 0) for x in c.to_ints())


def test_solve_unsat_exit_code(tmp_path, capsys):
    f = parse_dimacs("p cnf 1 2\n1 0\n-1 0\n")
    path = write_cnf(tmp_path / "u.cnf", f)
    code = main(["solve", path])
    out = capsys.readouterr().out
    assert code == 20
    assert "s UNSATISFIABLE" in out


def test_bad_flag_is_usage_error(tmp_path, capsys):
    path = write_cnf(tmp_path / "x.cnf", s1_formula())
    assert main(["solve", path, "--mode", "bogus"]) == 1
    capsys.readouterr()


def test_unreadable_file_is_usage_error(capsys):
    assert main(["solve", "/nonexistent/file.cnf"]) == 1
    err = capsys.readouterr().err
    assert "error" in err


def test_malformed_file_reports_line(tmp_path, capsys):
    p = tmp_path / "bad.cnf"
    p.write_text("p cnf 2 1\n1 junk 0\n")
    assert main(["solve", str(p)]) == 1
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data", [b"p cnf 2 1\r1 2 0\r", b"p cnf 2 1\r\n1\r-2 0\r\n", b"c x\rp cnf 1 1\n1 0\n"]
)
def test_solve_ends_lines_where_parse_dimacs_does(tmp_path, capsys, data):
    # A lone carriage return is whitespace in the file as in the library.
    p = tmp_path / "cr.cnf"
    p.write_bytes(data)
    code = main(["solve", str(p)])
    captured = capsys.readouterr()
    try:
        parse_dimacs(data.decode())
    except DimacsError as exc:
        assert code == 1
        assert captured.err == "error: %s: %s\n" % (p, exc)
    else:
        assert code == 10, captured.err


def test_undecodable_file_is_input_error(tmp_path, capsys):
    p = tmp_path / "bin.cnf"
    p.write_bytes(b"p cnf 1 1\n1 0\n\xff\xfe\n")
    assert main(["solve", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: %s: " % p), captured.err
    assert captured.out == ""


def test_solve_stats_csv(tmp_path, capsys):
    path = write_cnf(tmp_path / "s1.cnf", s1_formula())
    stats_path = tmp_path / "stats.csv"
    code = main(["solve", path, "--stats", str(stats_path)])
    capsys.readouterr()
    assert code == 10
    lines = stats_path.read_text().splitlines()
    assert lines[0].startswith("file,mode,analyze,verdict,propagations")
    assert len(lines) == 2


def test_solve_check_prints_invariant_counts(tmp_path, capsys):
    # wcb keeps only weak watches, so coarse checks see the strong-watch
    # invariant 4 fail; the weak-watch invariant 1 and the trail invariants
    # 2 and 3 always hold
    f = random_3sat(30, 128, 0)
    path = write_cnf(tmp_path / "in.cnf", f)
    flags = ["--cb-threshold", "1", "--check", "coarse"]
    for mode in ("wcb", "lscb"):
        main(["solve", path, "--mode", mode] + flags)
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("c invariant")]
        s = Solver(f.copy(), SolverConfig(mode=mode, cb_threshold=1, check_level="coarse"))
        s.solve()
        counts = sorted(s.violations.items())
        assert lines == ["c invariant %d violated %d times" % kv for kv in counts]
        if mode == "wcb":
            assert 4 in s.violations and not {1, 2, 3} & set(s.violations)
        else:
            assert lines == []


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "{cnf}", "--stats", "{tmp}/nodir/x.csv"],
        ["solve", "{cnf}", "--trace", "{tmp}/nodir/t.jsonl"],
        ["bench", "--gen", "10", "43", "2", "0", "--out", "{tmp}/nodir/b.csv"],
        ["gen", "--vars", "10", "--out-dir", "{cnf}"],
    ],
    ids=["solve-stats", "solve-trace", "bench-out", "gen-out-dir-is-a-file"],
)
def test_unwritable_output_fails_before_solving(argv, tmp_path, monkeypatch, capsys):
    built = []

    class CountingSolver(Solver):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr("lazysat.cli.Solver", CountingSolver)
    cnf = write_cnf(tmp_path / "s1.cnf", s1_formula())
    argv = [a.format(cnf=cnf, tmp=tmp_path) for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert built == []


def test_trace_jsonl_schema(tmp_path, capsys):
    # The second input re-falsifies a learned clause after lazy
    # reimplication; its conflict event has no clause index.
    cases = (
        (s1_formula(), ["--mode", "lscb"], False),
        (
            random_3sat(30, 128, 1001),
            ["--mode", "lscb", "--analyze", "1", "--cb-threshold", "1"],
            True,
        ),
    )
    for i, (formula, flags, refalsified) in enumerate(cases):
        path = write_cnf(tmp_path / ("in%d.cnf" % i), formula)
        trace_path = tmp_path / ("trace%d.jsonl" % i)
        main(["solve", path] + flags + ["--trace", str(trace_path)])
        capsys.readouterr()
        events = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert events, "trace must not be empty"
        kinds = {e["kind"] for e in events}
        assert "decide" in kinds and "result" in kinds
        decide = next(e for e in events if e["kind"] == "decide")
        assert set(decide) == {"kind", "lit", "level"}
        for e in events:
            if e["kind"] == "reimply":
                assert "clause" in e
        conflicts = [e for e in events if e["kind"] == "conflict"]
        assert any(e["clause"] is None for e in conflicts) == refalsified


def test_gen_writes_readable_instances(tmp_path, capsys):
    out_dir = tmp_path / "gen"
    code = main(
        ["gen", "--vars", "10", "--count", "3", "--seed", "5", "--out-dir", str(out_dir)]
    )
    capsys.readouterr()
    assert code == 0
    names = sorted(os.listdir(out_dir))
    assert len(names) == 3
    f = parse_dimacs((out_dir / names[0]).read_text())
    assert f.num_vars == 10
    assert len(f.clauses) == 43  # SATLIB-style ratio fallback for n=10


def test_gen_honours_an_explicit_zero_clause_count(tmp_path, capsys):
    out_dir = tmp_path / "gen"
    args = ["gen", "--vars", "10", "--clauses", "0", "--count", "1", "--seed", "0"]
    assert main(args + ["--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    assert os.listdir(out_dir) == ["rnd3-v10-c0-s0.cnf"]
    text = (out_dir / "rnd3-v10-c0-s0.cnf").read_text()
    assert "p cnf 10 0" in text.splitlines()


def test_bench_row_counts_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["bench", "--gen", "12", "51", "5", "0", "--out"]
    assert main(args + [str(out1)]) == 0
    assert main(args + [str(out2)]) == 0
    capsys.readouterr()
    a = out1.read_bytes()
    assert a == out2.read_bytes()
    assert main(args[:-1]) == 0  # without --out the same CSV goes to stdout
    assert capsys.readouterr().out == a.decode()
    lines = a.decode().splitlines()
    header = lines[0].split(",")
    assert header == [
        "instance",
        "n",
        "m",
        "mode",
        "verdict",
        "propagations",
        "decisions",
        "conflicts",
        "reimplications",
        "mli_detected",
        "wall_ms",
    ]
    data = [l for l in lines[1:] if not l.startswith("summary:")]
    summaries = [l for l in lines[1:] if l.startswith("summary:")]
    assert len(data) == 5 * 4  # instances x modes
    assert len(summaries) == 8  # modes x {SAT, UNSAT}
    assert all(l.split(",")[10] == "0.000" for l in data)


def test_bench_from_directory(tmp_path, capsys):
    d = tmp_path / "cnf"
    d.mkdir()
    for i in range(2):
        write_cnf(d / ("i%d.cnf" % i), random_3sat(10, 43, i))
    out = tmp_path / "dir.csv"
    assert main(["bench", "--dir", str(d), "--modes", "lscb,wcb", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert len([l for l in lines[1:] if not l.startswith("summary:")]) == 4
    assert len([l for l in lines[1:] if l.startswith("summary:")]) == 4


def test_bench_dir_malformed_file_is_input_error(tmp_path, capsys):
    d = tmp_path / "cnf"
    d.mkdir()
    (d / "a.cnf").write_text("p cnf 2 1\n1 x 0\n")
    assert main(["bench", "--dir", str(d)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a.cnf: line 2: non-integer token 'x'\n"


@pytest.mark.parametrize(
    "argv, target",
    [
        (["solve", "{cnf}"], "parse_dimacs"),
        (["solve", "{cnf}"], "Solver"),
        (["bench", "--dir", "{dir}"], "parse_dimacs"),
        (["bench", "--gen", "10", "43", "2", "0"], "Solver"),
    ],
    ids=["solve-parse", "solve-solver", "bench-parse", "bench-solver"],
)
def test_out_of_memory_is_an_error_not_a_traceback(argv, target, tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("lazysat.cli." + target, exhausted)
    cnf = write_cnf(tmp_path / "s1.cnf", s1_formula())
    argv = [a.format(cnf=cnf, dir=tmp_path) for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"


def test_bench_rejects_unknown_mode(capsys):
    assert main(["bench", "--gen", "10", "43", "1", "0", "--modes", "fast"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("modes", ["lscb,lscb", ""], ids=["duplicate", "empty"])
def test_bench_rejects_duplicate_or_empty_modes(modes, capsys):
    assert main(["bench", "--gen", "10", "43", "2", "0", "--modes", modes]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --modes must name each mode once, got %r\n" % modes


def test_bench_wall_time_fills_only_wall_ms(capsys):
    args = ["bench", "--gen", "10", "43", "3", "0"]
    assert main(args) == 0
    plain = capsys.readouterr().out.splitlines()
    assert main(args + ["--wall-time"]) == 0
    timed = capsys.readouterr().out.splitlines()
    assert len(timed) == len(plain)
    assert timed[0] == plain[0]
    wall = plain[0].split(",").index("wall_ms")
    for a, b in zip(plain[1:], timed[1:]):
        a, b = a.split(","), b.split(",")
        if not a[0].startswith("summary:"):
            assert float(b[wall]) >= 0.0
            a[wall] = b[wall] = ""
        assert a == b


def test_bench_verdict_disagreement_aborts(monkeypatch, capsys):
    class FlippedWcb(Solver):
        def solve(self):
            verdict = super().solve()
            if self.cfg.mode == "wcb":
                verdict.sat = not verdict.sat
            return verdict

    monkeypatch.setattr("lazysat.cli.Solver", FlippedWcb)
    assert main(["bench", "--gen", "10", "43", "1", "0", "--modes", "lscb,wcb"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: verdict disagreement on gen-v10-c43-s0: lscb=True wcb=False\n"


def test_bad_argument_values_are_usage_errors(tmp_path, capsys):
    path = write_cnf(tmp_path / "s1.cnf", s1_formula())
    out_dir = str(tmp_path / "gen")
    for argv in (
        ["solve", path, "--cb-threshold", "0"],
        ["gen", "--vars", "2", "--out-dir", out_dir],
        ["gen", "--vars", "5", "--clauses", "-3", "--out-dir", out_dir],
        ["gen", "--vars", "5", "--count", "-1", "--out-dir", out_dir],
        ["bench", "--gen", "2", "5", "1", "0"],
        ["bench", "--gen", "10", "-3", "1", "0"],
        ["bench", "--gen", "10", "43", "-1", "0"],
        ["bench", "--gen", "10", "43", "1", "0", "--cb-threshold", "0"],
    ):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err, argv
        assert captured.out == "", argv
        assert not os.path.exists(out_dir), argv  # validated before the directory is made


def test_python_dash_m_runs_the_cli(tmp_path):
    path = write_cnf(tmp_path / "s1.cnf", s1_formula())
    src = os.path.dirname(os.path.dirname(os.path.abspath(lazysat.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "lazysat", "solve", path],
        cwd=str(tmp_path),
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 10, done.stderr
    assert "s SATISFIABLE" in done.stdout


def test_python_dash_o_gives_the_same_bench_output(tmp_path):
    # no assert may carry control flow: stripping them changes no output
    src = os.path.dirname(os.path.dirname(os.path.abspath(lazysat.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["-m", "lazysat", "bench", "--gen", "20", "91", "10", "0"]
    argv += ["--analyze", "1", "--minimize"]
    outputs = []
    for flags in ([], ["-O"]):
        done = subprocess.run(
            [sys.executable] + flags + argv,
            cwd=str(tmp_path),
            env=env,
            capture_output=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["solve", "gen", "bench"])
def test_readme_synopsis_lists_the_parser_options(command):
    # the README's synopsis block for a subcommand names exactly the long
    # options its parser defines, --help aside
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(lazysat.__file__))))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    block = re.search(r"^```\n(lazysat %s .*?)^```" % command, text, re.M | re.S).group(1)
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    defined = {
        opt
        for action in subparsers.choices[command]._actions
        for opt in action.option_strings
        if opt.startswith("--") and opt != "--help"
    }
    assert set(re.findall(r"--[a-z][a-z-]*", block)) == defined
