"""Command-line front end: solve DIMACS files, generate instances, benchmark modes.

Exit codes follow the usual solver convention: 10 satisfiable, 20
unsatisfiable, 1 for usage or input errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

from .checker import ALL_INVARIANTS
from .formula import DimacsError, parse_dimacs, write_dimacs
from .solver import CHECK_LEVELS, MODES, RESTARTS, Solver, SolverConfig, Stats
from .testkit import load_dimacs_dir, random_3sat, satlib_clause_count

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_ERROR = 1

BENCH_FIELDS = (
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
)


def build_parser():
    parser = argparse.ArgumentParser(prog="lazysat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one DIMACS CNF file")
    solve.add_argument("file")
    solve.add_argument("--mode", choices=MODES, default="lscb")
    _add_config_flags(solve, cb_threshold=100)
    solve.add_argument("--check", choices=CHECK_LEVELS, default="off")
    solve.add_argument("--stats", metavar="FILE.csv", help="write a one-row stats CSV")
    solve.add_argument("--trace", metavar="FILE.jsonl", help="write one event per line")

    gen = sub.add_parser("gen", help="generate uniform random 3-SAT files")
    gen.add_argument("--vars", type=int, required=True)
    gen.add_argument("--clauses", type=int, default=0, help="default: SATLIB count for --vars")
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out-dir", required=True)

    bench = sub.add_parser("bench", help="propagation-count comparison across modes")
    src = bench.add_mutually_exclusive_group(required=True)
    src.add_argument(
        "--gen",
        nargs=4,
        type=int,
        metavar=("N", "M", "COUNT", "SEED"),
        help="generate COUNT random instances with N vars and M clauses",
    )
    src.add_argument("--dir", help="directory of .cnf files")
    bench.add_argument("--modes", default=",".join(MODES))
    _add_config_flags(bench, cb_threshold=1)
    bench.add_argument("--out", metavar="FILE.csv", help="default: stdout")
    bench.add_argument(
        "--wall-time", action="store_true", help="fill wall_ms (breaks byte determinism)"
    )
    return parser


def _add_config_flags(cmd, cb_threshold):
    """The search flags that solve and bench share."""
    cmd.add_argument("--analyze", type=int, choices=(1, 2), default=2)
    cmd.add_argument("--cb-threshold", type=int, default=cb_threshold)
    cmd.add_argument("--minimize", action="store_true")
    cmd.add_argument("--blockers", action="store_true")
    cmd.add_argument("--restarts", choices=RESTARTS, default="off")


def _config_from(args, mode=None):
    return SolverConfig(
        mode=mode or args.mode,
        analyze=args.analyze,
        cb_threshold=args.cb_threshold,
        minimize=args.minimize,
        blockers=args.blockers,
        restarts=args.restarts,
        check_level=getattr(args, "check", "off"),
    )


def make_trace_writer(fh):
    """One structured record per solver event, line-delimited JSON."""

    def emit(event):
        fh.write(json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n")

    return emit


def cmd_solve(args):
    try:
        with open(args.file) as fh:
            text = fh.read()
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    try:
        formula = parse_dimacs(text)
    except DimacsError as exc:
        print("error: %s: %s" % (args.file, exc), file=sys.stderr)
        return EXIT_ERROR
    try:
        cfg = _config_from(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    trace_fh = None
    trace = None
    if args.trace:
        try:
            trace_fh = open(args.trace, "w")
        except OSError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return EXIT_ERROR
        trace = make_trace_writer(trace_fh)
    try:
        solver = Solver(formula, cfg, trace=trace)
        verdict = solver.solve()
    finally:
        if trace_fh is not None:
            trace_fh.close()
    stats = solver.stats
    if cfg.check_level != "off":
        for inv in ALL_INVARIANTS:
            count = solver.violations.get(inv, 0)
            if count:
                print("c invariant %d violated %d times" % (inv, count))
    for name in Stats.FIELDS:
        print("c %s %d" % (name, getattr(stats, name)))
    if verdict.sat:
        print("s SATISFIABLE")
        lits = [v if verdict.model[v] else -v for v in sorted(verdict.model)]
        print("v " + " ".join(str(x) for x in lits + [0]))
    else:
        print("s UNSATISFIABLE")
    if args.stats:
        with open(args.stats, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("file", "mode", "analyze", "verdict") + Stats.FIELDS)
            writer.writerow(
                [args.file, cfg.mode, cfg.analyze, "SAT" if verdict.sat else "UNSAT"]
                + [getattr(stats, name) for name in Stats.FIELDS]
            )
    return EXIT_SAT if verdict.sat else EXIT_UNSAT


def cmd_gen(args):
    import os

    if args.count < 0:
        print("error: --count must be at least 0, got %d" % args.count, file=sys.stderr)
        return EXIT_ERROR
    os.makedirs(args.out_dir, exist_ok=True)
    m = args.clauses or satlib_clause_count(args.vars)
    for i in range(args.count):
        seed = args.seed + i
        try:
            formula = random_3sat(args.vars, m, seed)
        except ValueError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return EXIT_ERROR
        name = "rnd3-v%d-c%d-s%d.cnf" % (args.vars, m, seed)
        with open(os.path.join(args.out_dir, name), "w") as fh:
            fh.write(write_dimacs(formula))
    print("generated %d instances in %s" % (args.count, args.out_dir))
    return 0


def bench_rows(instances, modes, args):
    """Data rows plus per-mode SAT/UNSAT mean-propagation summaries.

    Aborts with a diagnostic when two modes disagree on a verdict.
    """
    rows = []
    sums = {(mode, sat): [0, 0] for mode in modes for sat in (True, False)}
    for name, formula, n, m in instances:
        verdicts = {}
        for mode in modes:
            cfg = _config_from(args, mode)
            start = time.perf_counter()
            solver = Solver(formula.copy(), cfg)
            verdict = solver.solve()
            wall = (time.perf_counter() - start) * 1000.0
            verdicts[mode] = verdict.sat
            stats = solver.stats
            rows.append(
                {
                    "instance": name,
                    "n": n,
                    "m": m,
                    "mode": mode,
                    "verdict": "SAT" if verdict.sat else "UNSAT",
                    "propagations": stats.propagations,
                    "decisions": stats.decisions,
                    "conflicts": stats.conflicts,
                    "reimplications": stats.reimplications,
                    "mli_detected": stats.mli_detected,
                    "wall_ms": ("%.3f" % wall) if args.wall_time else "0.000",
                }
            )
            bucket = sums[(mode, verdict.sat)]
            bucket[0] += stats.propagations
            bucket[1] += 1
        if len(set(verdicts.values())) > 1:
            raise BenchDisagreement(name, verdicts)
    for mode in modes:
        for sat in (True, False):
            total, count = sums[(mode, sat)]
            mean = total / count if count else 0.0
            rows.append(
                {
                    "instance": "summary:%s:%s" % (mode, "SAT" if sat else "UNSAT"),
                    "n": "",
                    "m": "",
                    "mode": mode,
                    "verdict": "SAT" if sat else "UNSAT",
                    "propagations": "%.2f" % mean,
                    "decisions": count,
                    "conflicts": "",
                    "reimplications": "",
                    "mli_detected": "",
                    "wall_ms": "",
                }
            )
    return rows


class BenchDisagreement(RuntimeError):
    def __init__(self, instance, verdicts):
        super().__init__(
            "verdict disagreement on %s: %s"
            % (instance, " ".join("%s=%s" % kv for kv in sorted(verdicts.items())))
        )
        self.instance = instance
        self.verdicts = verdicts


def render_bench_csv(rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=BENCH_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def cmd_bench(args):
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    instances = []
    try:
        for mode in modes:
            _config_from(args, mode)  # rejects an unknown mode or a bad flag value
        if args.gen:
            n, m, count, seed = args.gen
            if count < 0:
                raise ValueError("--gen COUNT must be at least 0, got %d" % count)
            for i in range(count):
                name = "gen-v%d-c%d-s%d" % (n, m, seed + i)
                instances.append((name, random_3sat(n, m, seed + i), n, m))
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    if args.dir is not None:
        try:
            loaded = load_dimacs_dir(args.dir)
        except OSError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return EXIT_ERROR
        for name, formula in loaded:
            instances.append((name, formula, formula.num_vars, len(formula.clauses)))
    try:
        rows = bench_rows(instances, modes, args)
    except BenchDisagreement as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    text = render_bench_csv(rows)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else EXIT_ERROR
    try:
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "bench":
            return cmd_bench(args)
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    return EXIT_ERROR


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
