import json
import os
import subprocess
import sys

import lazysat
from lazysat.cli import main
from lazysat.formula import parse_dimacs, write_dimacs
from lazysat.testkit import random_3sat, s1_formula


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


def test_solve_stats_csv(tmp_path, capsys):
    path = write_cnf(tmp_path / "s1.cnf", s1_formula())
    stats_path = tmp_path / "stats.csv"
    code = main(["solve", path, "--stats", str(stats_path)])
    capsys.readouterr()
    assert code == 10
    lines = stats_path.read_text().splitlines()
    assert lines[0].startswith("file,mode,analyze,verdict,propagations")
    assert len(lines) == 2


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


def test_bench_row_counts_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["bench", "--gen", "12", "51", "5", "0", "--out"]
    assert main(args + [str(out1)]) == 0
    assert main(args + [str(out2)]) == 0
    capsys.readouterr()
    a = out1.read_bytes()
    assert a == out2.read_bytes()
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


def test_bench_rejects_unknown_mode(capsys):
    assert main(["bench", "--gen", "10", "43", "1", "0", "--modes", "fast"]) == 1
    capsys.readouterr()


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
