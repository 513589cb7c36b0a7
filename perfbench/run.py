#!/usr/bin/env python3
"""Solver benchmark: seeded uniform random 3-SAT, solved in all four modes.

Run from the repository root:

    python3 perfbench/run.py --workload hard-50 --seed 1 --seconds 28 --trace 0

The instance set of a workload is generated from ``--seed`` alone, so the
same seed always gives the same DIMACS texts (their SHA-256 is printed).
Every instance is solved once per mode in a *pass*.  A run makes at least
two passes and more while another one fits in ``--seconds``.  Times are
reported in reference seconds (see SpeedProbe), and each (instance, mode)
solve time is the median over the passes.  With ``--trace 0`` the last
line reports the end-to-end metrics; with ``--trace 1`` the untraced
passes are followed by one traced pass and the last line reports the
per-layer metrics.  The line before it is one ``{"info": ...}`` JSON
object with the input fingerprint and the raw measurements.

The package is driven only through its public entry points; per-layer
times come from wrappers installed around the calls into each module and
removed again after the traced pass.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "lazysat")):
    sys.exit("error: no lazysat package under %s; run from a lazysat checkout" % SRC)
sys.path.insert(0, SRC)

from lazysat import checker as checker_mod  # noqa: E402
from lazysat import solver as solver_mod  # noqa: E402
from lazysat.cli import bench_rows  # noqa: E402
from lazysat.formula import parse_dimacs, write_dimacs  # noqa: E402
from lazysat.propagate import Propagator  # noqa: E402
from lazysat.solver import Solver, SolverConfig, Stats  # noqa: E402
from lazysat.testkit import brute_force, random_3sat  # noqa: E402

MODES = ("ncb", "wcb", "rscb", "lscb")

# Totals over a random instance set vary with the seed by about the
# per-instance spread over sqrt(count).  Instance counts are therefore as
# large as MIN_PASSES passes of about 10 s each allow on a 2-core Xeon at
# the first benchmarked commit, and where the brute-force oracle reaches,
# the numbers of satisfiable and unsatisfiable instances are fixed (as in
# SATLIB's uf/uuf families): the two classes differ about 2x in cost, so a
# seed-dependent mix would dominate the spread (see README.md).
WORKLOADS = {
    "hard-50": dict(vars=50, clauses=218, sat=0, unsat=130, analyze=2, minimize=False, check="off"),
    "sparse-1500": dict(vars=1500, clauses=3750, count=20, analyze=2, minimize=False, check="off"),
    "checked-30": dict(vars=30, clauses=128, sat=120, unsat=120, analyze=1, minimize=True, check="coarse"),
}

# Invariants each mode guarantees (the zero cells of the acceptance test's
# invariant matrix); a violation of one of these fails the solve.  The
# others are expected to break in the weaker modes and are only counted.
GUARANTEED = {
    "ncb": (1, 2, 3, 4, 5, 7),
    "wcb": (1, 2, 3),
    "rscb": (1, 2, 3, 4, 6),
    "lscb": (1, 2, 3, 4, 6, 7),
}

MIN_PASSES = 2

# A speed probe runs before a solve once this much time has passed since
# the last one, which costs under a tenth of a pass.
PROBE_EVERY_S = 0.04

# Probes on each side of a measurement that set its scale: wide enough to
# smooth one probe's jitter, narrow enough to follow a change of speed
# that lasts a second.
PROBE_WINDOW = 4

# Mean probe duration that defines one reference second (see SpeedProbe).
REFERENCE_PROBE_S = 0.0022

clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- inputs --------------------------------------------------------------------


class Instance:
    """One generated formula: DIMACS text, clauses as signed ints, and the
    brute-force verdict (None where the oracle does not reach)."""

    def __init__(self, name, text, clauses, truth):
        self.name = name
        self.text = text
        self.clauses = clauses
        self.truth = truth


def generate(workload, seed):
    """The instance set of a workload, a function of (workload, seed) only.

    Oracle-sized workloads draw candidates until they hold the wanted
    numbers of satisfiable and unsatisfiable instances.
    """
    spec = WORKLOADS[workload]
    rng = random.Random("%s:%d" % (workload, seed))
    want = None if "count" in spec else {True: spec["sat"], False: spec["unsat"]}
    total = spec["count"] if want is None else spec["sat"] + spec["unsat"]
    out = []
    while len(out) < total:
        formula = random_3sat(spec["vars"], spec["clauses"], rng.randrange(2**32))
        truth = None
        if want is not None:
            truth = brute_force(formula)
            if not want[truth]:
                continue
            want[truth] -= 1
        name = "%s-%d-%d" % (workload, seed, len(out))
        clauses = [c.to_ints() for c in formula.clauses]
        out.append(Instance(name, write_dimacs(formula), clauses, truth))
    return out


def fingerprint(instances):
    digest = hashlib.sha256()
    for inst in instances:
        digest.update(inst.text.encode())
    return digest.hexdigest()


def config(spec, mode):
    return SolverConfig(
        mode=mode,
        analyze=spec["analyze"],
        cb_threshold=1,
        minimize=spec["minimize"],
        check_level=spec["check"],
    )


class SpeedProbe:
    """A fixed pure-Python workload that shares no code with lazysat.

    Other tenants of a shared host slow a core by up to 2x, for seconds to
    minutes at a time, and solve times move with them.  Probes run between
    solves track that speed: each time is multiplied by REFERENCE_PROBE_S
    over the mean duration of the probes around it, giving *reference
    seconds*, the time it would have taken on a core that runs the probe in
    REFERENCE_PROBE_S.  Like the solver, the probe is
    dominated by attribute loads, list indexing and small-int compares over
    an object graph that does not fit in the first-level caches.
    """

    NODES = 3000
    EDGES = 6
    ROUNDS = 3

    class Node:
        __slots__ = ("edges", "mark")

    def __init__(self):
        rng = random.Random(0)
        self.nodes = [self.Node() for _ in range(self.NODES)]
        for node in self.nodes:
            node.mark = 0
            node.edges = [self.nodes[rng.randrange(self.NODES)] for _ in range(self.EDGES)]
        self.round = 0

    def run(self):
        """Seconds taken by ROUNDS depth-first walks of the graph."""
        start = clock()
        root = self.nodes[0]
        for _ in range(self.ROUNDS):
            self.round += 1
            mark = self.round
            root.mark = mark
            stack = [root]
            while stack:
                for nxt in stack.pop().edges:
                    if nxt.mark != mark:
                        nxt.mark = mark
                        stack.append(nxt)
        return clock() - start


# -- tracing -------------------------------------------------------------------


class Tracer:
    """Self time and call count per span name, kept separately per mode.

    A span's self time is its duration minus the time of the spans it
    encloses.  Spans are folded into these totals as they close rather than
    stored, because a traced pass opens millions of them.
    """

    def __init__(self):
        self.by_mode = {mode: {} for mode in MODES}
        self.counts = {mode: {} for mode in MODES}
        self.current = None
        self.current_counts = None
        self._inner = [0.0]  # enclosed time of each open span, innermost last
        self._patches = []

    def set_mode(self, mode):
        self.current = self.by_mode[mode]
        self.current_counts = self.counts[mode]

    def count(self, name, amount=1):
        counts = self.current_counts
        counts[name] = counts.get(name, 0) + amount

    def span(self, name, fn, on_exit=None):
        inner = self._inner
        tracer = self

        def wrapper(*args, **kwargs):
            inner.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                enclosed = inner.pop()
                inner[-1] += elapsed
                rec = tracer.current.get(name)
                if rec is None:
                    rec = tracer.current[name] = [0.0, 0]
                rec[0] += elapsed - enclosed
                rec[1] += 1
            if on_exit is not None:
                on_exit(tracer, args, result)
            return result

        return wrapper

    def patch(self, owner, attr, name, on_exit=None):
        """Wrap owner.attr in a span; a missing attribute is left alone."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, on_exit))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_s(self, mode, *names):
        table = self.by_mode[mode]
        return sum(table.get(name, (0.0, 0))[0] for name in names)

    def calls(self, mode, name):
        return self.by_mode[mode].get(name, (0.0, 0))[1]


def _after_analysis(tracer, args, learned):
    tracer.count("resolve_steps", len(learned.steps))
    tracer.count("lazy_steps", sum(1 for _, kind in learned.steps if kind == "lazy"))
    tracer.count("learned_lits", len(learned.lits))


def _after_minimize(tracer, args, kept):
    tracer.count("minimize_in", len(args[1].lits))
    tracer.count("minimize_removed", len(args[1].lits) - len(kept.lits))


def install_spans(tracer):
    """Wrap the calls into each layer.

    solver.py binds analyze/minimize/backtrack as its own module globals and
    reaches the checker through its module, so those names are replaced
    where the solver looks them up; methods are replaced on their class.
    """
    tracer.patch(Propagator, "init_watches", "init_watches")
    tracer.patch(Propagator, "bcp", "bcp")
    tracer.patch(Propagator, "propagate_literal", "propagate_literal")
    tracer.patch(Propagator, "_search_idx", "search")
    tracer.patch(solver_mod, "run_analysis", "analyze", _after_analysis)
    tracer.patch(solver_mod, "minimize_clause", "minimize", _after_minimize)
    tracer.patch(solver_mod, "run_backtrack", "backtrack")
    tracer.patch(checker_mod, "check_ids", "check_ids")
    tracer.patch(Solver, "solve", "solve")
    tracer.patch(Solver, "decide", "decide")
    tracer.patch(Solver, "install_learned", "install")
    tracer.patch(Solver, "_checkpoint", "checkpoint")


# -- solving and checking --------------------------------------------------------


class Outcome:
    """Everything kept from one (instance, mode) solve."""

    __slots__ = ("seconds", "stats", "sat", "error", "model_ok", "violations", "learned_lits")

    def __init__(self):
        self.seconds = []
        self.stats = None
        self.sat = None
        self.error = None
        self.model_ok = True
        self.violations = {}
        self.learned_lits = 0


def model_satisfies(model, clauses, num_vars):
    if model is None or len(model) != num_vars:
        return False
    return all(any(model[abs(x)] == (x > 0) for x in clause) for clause in clauses)


def setup_seconds(inst, spec):
    """parse_dimacs + Solver(...) + Solver.setup() for one instance."""
    start = clock()
    Solver(parse_dimacs(inst.text), config(spec, "lscb")).setup()
    return clock() - start


def solve_pass(instances, spec, outcomes, probe, tracer=None):
    """Solve every instance in every mode once.

    Returns the pass's seconds in Solver.solve(), the same in reference
    seconds, and the set-up time of the instance set in reference seconds
    (untraced passes only; timed just before each instance's solves so
    that the samples spread over the pass).  Each time is scaled by the
    probes around it: the last one before it and PROBE_WINDOW on each side.
    The first pass fills ``outcomes``; a later pass records an error when a
    solve's Stats or verdict differ from the first pass.  Untraced passes
    append each solve's time in reference seconds to its outcome.

    As in timeit, automatic garbage collection is off while solving: its
    pauses scale with the benchmark's own heap, not the solver's, and land
    on random solves.  The youngest generation is collected after each
    instance, untimed, which frees the reference cycles the solver leaves
    (minimize's recursive closure keeps the trail state alive).
    """
    parse = parse_dimacs if tracer is None else tracer.span("parse", parse_dimacs)
    probes = [probe.run()]
    last_probe = clock()
    setups = []  # (seconds, index of the last probe before)
    solves = []  # (outcome, seconds, index of the last probe before)
    gc.collect()
    gc.disable()
    try:
        for i, inst in enumerate(instances):
            if tracer is None:
                setups.append((setup_seconds(inst, spec), len(probes) - 1))
            for mode in MODES:
                if clock() - last_probe >= PROBE_EVERY_S:
                    probes.append(probe.run())
                    last_probe = clock()
                out = outcomes.setdefault((i, mode), Outcome())
                if out.error is not None:
                    continue
                if tracer is not None:
                    tracer.set_mode(mode)
                try:
                    solver = Solver(parse(inst.text), config(spec, mode))
                    start = clock()
                    verdict = solver.solve()
                    elapsed = clock() - start
                except Exception:
                    out.error = traceback.format_exc()
                    continue
                stats = solver.stats.as_dict()
                if out.stats is None:
                    out.stats = stats
                    out.sat = verdict.sat
                    if verdict.sat:
                        out.model_ok = model_satisfies(verdict.model, inst.clauses, spec["vars"])
                    out.violations = dict(solver.violations)
                    out.learned_lits = sum(len(c.lits) for c in solver.formula.clauses if c.learned)
                elif stats != out.stats or verdict.sat != out.sat:
                    out.error = "Stats or verdict differ between passes: %s vs %s" % (stats, out.stats)
                    continue
                solves.append((out, elapsed, len(probes) - 1))
            gc.collect(0)
    finally:
        gc.enable()

    def reference(seconds, j):
        window = probes[max(j - PROBE_WINDOW, 0) : j + PROBE_WINDOW + 1]
        return seconds * REFERENCE_PROBE_S / statistics.fmean(window)

    solve_total = reference_total = 0.0
    for out, elapsed, j in solves:
        scaled = reference(elapsed, j)
        solve_total += elapsed
        reference_total += scaled
        if tracer is None:
            out.seconds.append(scaled)
    setup_total = sum(reference(seconds, j) for seconds, j in setups)
    return solve_total, reference_total, setup_total


def check_outcomes(instances, outcomes):
    """Names of the failed checks per (instance, mode); empty when all hold."""
    failures = {}

    def fail(key, why):
        failures.setdefault(key, []).append(why)

    for i, inst in enumerate(instances):
        keys = [(i, mode) for mode in MODES]
        for key in keys:
            out = outcomes[key]
            if out.error is not None:
                fail(key, out.error)
            elif not out.model_ok:
                fail(key, "model does not satisfy the input clauses")
            broken = {inv: n for inv, n in out.violations.items() if inv in GUARANTEED[key[1]] and n}
            if broken:
                fail(key, "guaranteed invariants violated: %s" % broken)
        verdicts = {outcomes[k].sat for k in keys if outcomes[k].error is None}
        if len(verdicts) > 1:
            for key in keys:
                fail(key, "modes disagree on the verdict")
        if inst.truth is not None:
            for key in keys:
                if outcomes[key].sat is not None and outcomes[key].sat != inst.truth:
                    fail(key, "verdict differs from brute force")
    return failures


BENCH_ROW_FIELDS = ("propagations", "decisions", "conflicts", "reimplications", "mli_detected")


def check_against_bench_rows(instance, spec, outcomes):
    """The CLI's bench rows for the first instance must match our counters."""
    args = argparse.Namespace(
        analyze=spec["analyze"],
        cb_threshold=1,
        minimize=spec["minimize"],
        blockers=False,
        restarts="off",
        wall_time=False,
    )
    formula = parse_dimacs(instance.text)
    rows = bench_rows([(instance.name, formula, spec["vars"], spec["clauses"])], MODES, args)
    failures = {}
    for row in rows[: len(MODES)]:
        key = (0, row["mode"])
        out = outcomes[key]
        if out.stats is None:
            continue
        mine = [out.stats[f] for f in BENCH_ROW_FIELDS] + ["SAT" if out.sat else "UNSAT"]
        theirs = [row[f] for f in BENCH_ROW_FIELDS] + [row["verdict"]]
        if mine != theirs:
            failures[key] = ["counters differ from cli.bench_rows: %s vs %s" % (mine, theirs)]
    return failures


# -- metrics -------------------------------------------------------------------


def tail_rank(samples):
    """Index (ascending) of the highest sample with ten samples above it."""
    return max(len(samples) - 11, 0)


def end_to_end(outcomes, setup_s, failed, attempted, info):
    metrics = {"setup_s": (setup_s, "s")}
    times = []
    total_props = 0
    for mode in MODES:
        mine = [out for (_, m), out in outcomes.items() if m == mode and out.stats is not None]
        seconds = [statistics.median(out.seconds) for out in mine]
        times.extend(seconds)
        metrics["solve_s." + mode] = (sum(seconds), "s")
        props = sum(out.stats["propagations"] for out in mine)
        metrics["propagations." + mode] = (props, "count")
        total_props += props
    times.sort()
    metrics["solve_ms.p50"] = (statistics.median(times) * 1000.0, "ms")
    metrics["solve_ms.tail"] = (times[tail_rank(times)] * 1000.0, "ms")
    info["tail_percentile"] = 100.0 * (tail_rank(times) + 1) / len(times)
    info["tail_samples"] = len(times)
    metrics["props_per_s"] = (total_props / sum(times), "1/s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics["ok_frac"] = (1.0 - failed / attempted, "fraction")
    return metrics


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, outcomes, overhead):
    metrics = {
        "formula.parse_s": (sum(tracer.self_s(m, "parse") for m in MODES), "s"),
        "propagate.init_watches_s": (sum(tracer.self_s(m, "init_watches") for m in MODES), "s"),
        "trace.overhead_frac": (overhead, "fraction"),
    }
    for mode in MODES:
        done = [out for (_, m), out in outcomes.items() if m == mode and out.stats is not None]
        stats = {f: sum(out.stats[f] for out in done) for f in Stats.FIELDS}
        counts = tracer.counts[mode]
        analyses = tracer.calls(mode, "analyze")
        rows = {
            "propagate.bcp_s": (tracer.self_s(mode, "bcp"), "s"),
            "propagate.propagate_literal_s": (tracer.self_s(mode, "propagate_literal"), "s"),
            "propagate.search_s": (tracer.self_s(mode, "search"), "s"),
            "propagate.bcp_calls": (tracer.calls(mode, "bcp"), "count"),
            "propagate.propagations": (stats["propagations"], "count"),
            "analyze.analyze_s": (tracer.self_s(mode, "analyze", "minimize"), "s"),
            "analyze.calls": (analyses, "count"),
            "analyze.resolve_steps": (counts.get("resolve_steps", 0), "count"),
            "analyze.learned_lits_mean": (_ratio(counts.get("learned_lits", 0), analyses), "count"),
            "analyze.minimize_removed_frac": (
                _ratio(counts.get("minimize_removed", 0), counts.get("minimize_in", 0)),
                "fraction",
            ),
            "backtrack.backtrack_s": (tracer.self_s(mode, "backtrack"), "s"),
            "backtrack.calls": (tracer.calls(mode, "backtrack"), "count"),
            "solver.loop_s": (tracer.self_s(mode, "solve"), "s"),
            "solver.decide_s": (tracer.self_s(mode, "decide"), "s"),
            "solver.install_s": (tracer.self_s(mode, "install"), "s"),
            "solver.decisions": (stats["decisions"], "count"),
            "solver.conflicts": (stats["conflicts"], "count"),
            "solver.learned_per_conflict": (_ratio(stats["learned"], stats["conflicts"]), "fraction"),
            "solver.learned_db_lits": (sum(out.learned_lits for out in done), "count"),
            "checker.check_s": (tracer.self_s(mode, "checkpoint", "check_ids"), "s"),
            "checker.calls": (tracer.calls(mode, "check_ids"), "count"),
            "checker.violations": (sum(sum(out.violations.values()) for out in done), "count"),
        }
        if mode == "lscb":
            steps = counts.get("resolve_steps", 0)
            rows["propagate.mli_detected"] = (stats["mli_detected"], "count")
            rows["analyze.lazy_step_frac"] = (_ratio(counts.get("lazy_steps", 0), steps), "fraction")
            rows["backtrack.reimplications"] = (stats["reimplications"], "count")
            rows["backtrack.reimply_per_mli"] = (
                _ratio(stats["reimplications"], stats["mli_detected"]),
                "fraction",
            )
        for name, value in rows.items():
            metrics["%s.%s" % (name, mode)] = value
    return metrics


LAYERS = {
    "formula": ("parse",),
    "propagate": ("init_watches", "bcp", "propagate_literal", "search"),
    "analyze": ("analyze", "minimize"),
    "backtrack": ("backtrack",),
    "solver": ("solve", "decide", "install"),
    "checker": ("checkpoint", "check_ids"),
}


def layer_breakdown(tracer):
    """Self seconds per module and per span, summed over the four modes."""
    spans = {}
    for mode in MODES:
        for name, (seconds, _) in tracer.by_mode[mode].items():
            spans[name] = spans.get(name, 0.0) + seconds
    layers = {layer: sum(spans.get(n, 0.0) for n in names) for layer, names in LAYERS.items()}
    return layers, spans


# -- main ----------------------------------------------------------------------


def run(args):
    spec = WORKLOADS[args.workload]
    instances = generate(args.workload, args.seed)
    outcomes = {}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "instances": len(instances),
        "dimacs_sha256": fingerprint(instances),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
    }

    probe = SpeedProbe()
    passes = []  # (solve seconds, solve reference seconds, set-up reference seconds)
    start = clock()
    while len(passes) < MIN_PASSES or (clock() - start) * (1 + 1 / len(passes)) <= args.seconds:
        passes.append(solve_pass(instances, spec, outcomes, probe))
    info["passes"] = len(passes)
    info["pass_solve_s"] = [p[0] for p in passes]
    info["pass_reference_s"] = [p[1] for p in passes]

    tracer = None
    if args.trace:
        tracer = Tracer()
        install_spans(tracer)
        try:
            _, traced, _ = solve_pass(instances, spec, outcomes, probe, tracer)
        finally:
            tracer.restore()

    failures = check_outcomes(instances, outcomes)
    for key, why in check_against_bench_rows(instances[0], spec, outcomes).items():
        failures.setdefault(key, []).extend(why)
    for (i, mode), why in sorted(failures.items()):
        print("FAIL %s %s: %s" % (instances[i].name, mode, "; ".join(why)), file=sys.stderr)

    attempted = len(outcomes)
    failed = len(failures)
    if args.trace:
        overhead = traced / statistics.median(p[1] for p in passes) - 1.0
        metrics = per_layer(tracer, outcomes, overhead)
        layers, spans = layer_breakdown(tracer)
        info["layer_self_s"] = layers
        info["span_self_s"] = spans
        info["largest_layer"] = max(layers, key=layers.get)
    else:
        setup_s = statistics.median(p[2] for p in passes)
        metrics = end_to_end(outcomes, setup_s, failed, attempted, info)
    print(json.dumps({"info": info}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
