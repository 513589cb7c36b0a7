"""Command-line front end: solve DIMACS files, generate instances, benchmark modes.

Exit codes follow the usual solver convention: 10 satisfiable, 20
unsatisfiable, 1 for usage, input or output errors.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
import time

from .formula import parse_dimacs, write_dimacs
from .solver import CHECK_LEVELS, MODES, Solver, SolverConfig
from .testkit import random_3sat, satlib_clause_count

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_ERROR = 1

# The Stats counters each bench data row reports, in column order.
BENCH_STATS = ("propagations", "decisions", "conflicts", "reimplications", "mli_detected")
BENCH_FIELDS = ("instance", "n", "m", "mode", "verdict") + BENCH_STATS + ("wall_ms",)


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
    gen.add_argument("--clauses", type=int, help="default: SATLIB count for --vars")
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


def _config_from(args, mode, check="off"):
    return SolverConfig(
        mode=mode,
        analyze=args.analyze,
        cb_threshold=args.cb_threshold,
        minimize=args.minimize,
        check_level=check,
    )


def make_trace_writer(fh):
    """One structured record per solver event, line-delimited JSON."""

    def emit(event):
        fh.write(json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n")

    return emit


def read_dimacs(path, name):
    """Read and parse one DIMACS file; a ValueError names it as ``name``.

    Both malformed DIMACS and text that does not decode are ValueErrors.
    The file is read without newline translation, so its lines end where
    ``parse_dimacs`` ends them: at a newline only.
    """
    try:
        with open(path, newline="") as fh:
            return parse_dimacs(fh.read())
    except ValueError as exc:
        raise ValueError("%s: %s" % (name, exc)) from None


def cmd_solve(args):
    formula = read_dimacs(args.file, args.file)
    cfg = _config_from(args, args.mode, args.check)
    with contextlib.ExitStack() as outputs:
        stats_fh = None
        trace = None
        if args.stats:
            stats_fh = outputs.enter_context(open(args.stats, "w", newline=""))
        if args.trace:
            trace = make_trace_writer(outputs.enter_context(open(args.trace, "w")))
        solver = Solver(formula, cfg, trace=trace)
        verdict = solver.solve()
        counts = solver.stats.as_dict()
        if stats_fh is not None:
            writer = csv.writer(stats_fh, lineterminator="\n")
            writer.writerow(("file", "mode", "analyze", "verdict", *counts))
            answer = "SAT" if verdict.sat else "UNSAT"
            writer.writerow((args.file, cfg.mode, cfg.analyze, answer, *counts.values()))
    for inv, count in sorted(solver.violations.items()):
        print("c invariant %d violated %d times" % (inv, count))
    for name, count in counts.items():
        print("c %s %d" % (name, count))
    if verdict.sat:
        print("s SATISFIABLE")
        lits = [v if verdict.model[v] else -v for v in sorted(verdict.model)]
        print("v " + " ".join(str(x) for x in lits + [0]))
    else:
        print("s UNSATISFIABLE")
    return EXIT_SAT if verdict.sat else EXIT_UNSAT


def cmd_gen(args):
    if args.count < 0:
        raise ValueError("--count must be at least 0, got %d" % args.count)
    m = satlib_clause_count(args.vars) if args.clauses is None else args.clauses
    seeds = range(args.seed, args.seed + args.count)
    # generated before the directory exists, so a usage error leaves nothing behind
    texts = [write_dimacs(random_3sat(args.vars, m, seed)) for seed in seeds]
    os.makedirs(args.out_dir, exist_ok=True)
    for seed, text in zip(seeds, texts):
        name = "rnd3-v%d-c%d-s%d.cnf" % (args.vars, m, seed)
        with open(os.path.join(args.out_dir, name), "w") as fh:
            fh.write(text)
    print("generated %d instances in %s" % (args.count, args.out_dir))
    return 0


def load_dimacs_dir(path):
    """All .cnf files under a directory, sorted by name; ValueError names a malformed one."""
    out = []
    for name in sorted(os.listdir(path)):
        if name.endswith(".cnf"):
            out.append((name, read_dimacs(os.path.join(path, name), name)))
    return out


def bench_rows(instances, modes, args):
    """Data rows plus per-mode SAT/UNSAT mean-propagation summaries.

    Raises ValueError naming the instance when two modes disagree on a verdict.
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
            row = {
                "instance": name,
                "n": n,
                "m": m,
                "mode": mode,
                "verdict": "SAT" if verdict.sat else "UNSAT",
                "wall_ms": ("%.3f" % wall) if args.wall_time else "0.000",
            }
            for field in BENCH_STATS:
                row[field] = getattr(stats, field)
            rows.append(row)
            bucket = sums[(mode, verdict.sat)]
            bucket[0] += stats.propagations
            bucket[1] += 1
        if len(set(verdicts.values())) > 1:
            raise ValueError(
                "verdict disagreement on %s: %s"
                % (name, " ".join("%s=%s" % kv for kv in sorted(verdicts.items())))
            )
    # summary rows: mean propagations, instance count; DictWriter leaves the rest empty
    for mode in modes:
        for sat in (True, False):
            total, count = sums[(mode, sat)]
            mean = total / count if count else 0.0
            rows.append(
                {
                    "instance": "summary:%s:%s" % (mode, "SAT" if sat else "UNSAT"),
                    "mode": mode,
                    "verdict": "SAT" if sat else "UNSAT",
                    "propagations": "%.2f" % mean,
                    "decisions": count,
                }
            )
    return rows


def render_bench_csv(rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=BENCH_FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def cmd_bench(args):
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    if not modes or len(set(modes)) != len(modes):
        raise ValueError("--modes must name each mode once, got %r" % args.modes)
    for mode in modes:
        _config_from(args, mode)  # rejects an unknown mode or a bad flag value
    instances = []
    if args.gen:
        n, m, count, seed = args.gen
        if count < 0:
            raise ValueError("--gen COUNT must be at least 0, got %d" % count)
        for i in range(count):
            name = "gen-v%d-c%d-s%d" % (n, m, seed + i)
            instances.append((name, random_3sat(n, m, seed + i), n, m))
    if args.dir is not None:
        for name, formula in load_dimacs_dir(args.dir):
            instances.append((name, formula, formula.num_vars, len(formula.clauses)))
    if args.out:
        out = open(args.out, "w", newline="")
    else:
        out = contextlib.nullcontext(sys.stdout)
    with out as fh:
        fh.write(render_bench_csv(bench_rows(instances, modes, args)))
    return 0


def main(argv=None):
    """Run one command; the only place that turns an OSError or ValueError
    (bad input or output), or a MemoryError, into ``error: ...`` and exit
    code 1."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else EXIT_ERROR
    commands = {"solve": cmd_solve, "gen": cmd_gen, "bench": cmd_bench}
    try:
        return commands[args.command](args)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_ERROR


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
