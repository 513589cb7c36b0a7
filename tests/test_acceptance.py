"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The suite is the exit
gate: every tolerance is pinned here, and the prints show the measured
numbers behind each verdict.
"""

import hashlib
import itertools
import json
import statistics

import lazysat.solver as solver_module
from lazysat.checker import check_ids
from lazysat.cli import render_bench_csv
from lazysat.solver import Solver, SolverConfig
from lazysat.state import FALSE
from lazysat.testkit import brute_force, random_3sat, satlib_clause_count
from support import ZERO_IDS, LockstepRunner, entails, s1_replay, s2_replay, solve_record

# Sizes span the 20-60 variable band at the SATLIB clause ratio.
ORACLE_SIZES = ((20, 600), (30, 500), (40, 400), (50, 300), (60, 200))
MATRIX_SIZES = ((10, 50), (12, 50), (14, 50), (16, 50))
EQUIV_SIZES = ((14, 200), (16, 200), (20, 100))
TREND_VARS, TREND_CLAUSES, TREND_COUNT = 50, 218, 300
MODES = ("ncb", "wcb", "rscb", "lscb")
# SHA-256 of the determinism test's bench CSV (4176 bytes); a change to the
# search must update it openly.
BENCH_CSV_SHA256 = "b34c515d3f97bbd7b268cea3e77bc1360d39ccf8645ca12103284b5f756748ef"
# SHA-256 of the search digest sweep's JSON: verdicts, models, Stats,
# violations and learned clauses.  Like the CSV digest, it changes only
# openly, with a search change.
SEARCH_SHA256 = "ac14c5c4905a79115603132ae4249ca75a025a95ea76ef8c73af78b44cd37f43"
SEARCH_SIZES = ((30, 128), (50, 218))
SEARCH_CONFIGS = (
    {"cb_threshold": 1},
    {
        "cb_threshold": 1,
        "analyze": 1,
        "minimize": True,
        "check_level": "coarse",
    },
)


def _report(name, ok, detail=""):
    print("[ACCEPTANCE] %s: %s%s" % (name, "PASS" if ok else "FAIL", detail))


def test_oracle_agreement():
    """All four modes agree with the brute-force oracle: lscb under both
    strategies, the other modes under strategy 2.  Outside lscb no MLI is
    stored, so strategy 1 would solve identically
    (test_analysis_strategy_is_inert_outside_lscb); each of those solves
    asserts that it stored none."""
    disagreements = 0
    model_failures = 0
    stored_mlis = 0
    checked = 0
    for n, count in ORACLE_SIZES:
        m = satlib_clause_count(n)
        for i in range(count):
            f = random_3sat(n, m, 10_000 + i)
            expect = brute_force(f)
            for mode in MODES:
                for strategy in (1, 2) if mode == "lscb" else (2,):
                    cfg = SolverConfig(mode=mode, analyze=strategy, cb_threshold=1)
                    s = Solver(f.copy(), cfg)
                    verdict = s.solve()
                    checked += 1
                    if mode != "lscb":
                        stored_mlis += s.stats.mli_detected
                    if verdict.sat != expect:
                        disagreements += 1
                    if verdict.sat:
                        for c in f.clauses:
                            if not any(
                                verdict.model[abs(x)] == (x > 0) for x in c.to_ints()
                            ):
                                model_failures += 1
                                break
    ok = disagreements == 0 and model_failures == 0 and stored_mlis == 0
    _report(
        "oracle agreement",
        ok,
        " (%d solver runs over %d instances, %d disagreements, %d bad models)"
        % (checked, sum(c for _, c in ORACLE_SIZES), disagreements, model_failures),
    )
    assert disagreements == 0
    assert model_failures == 0
    assert stored_mlis == 0


def test_analysis_strategy_is_inert_outside_lscb():
    """Only lscb stores MLIs, and the strategy only changes how stored MLIs
    are read, so ncb, wcb and rscb solve identically under both strategies,
    under every flag combination."""
    grid = itertools.product(("ncb", "wcb", "rscb"), (False, True), ("off", "coarse"), (1, 100))
    differing = []
    solves = 0
    for k, (mode, minimize, check, threshold) in enumerate(grid):
        flags = dict(mode=mode, minimize=minimize, check_level=check)
        for f in (random_3sat(20, 91, k % 40), random_3sat(40, 170, k % 20)):
            one, two = (
                solve_record(f, SolverConfig(analyze=strategy, cb_threshold=threshold, **flags))
                for strategy in (1, 2)
            )
            solves += 2
            assert one["stats"]["mli_detected"] == 0
            if one != two:
                differing.append((k, f.num_vars))
    _report(
        "strategy inert outside lscb",
        not differing,
        " (%d solves, differing: %s)" % (solves, differing[:4] or "none"),
    )
    assert differing == []


def test_invariant_matrix():
    """Per-mode invariant guarantees under fine-grained checking.

    Zero-tolerance cells per mode, plus the required existence of a strong
    watched-literal violation somewhere in the weak-mode batch.
    """
    broken = []
    wcb_inv4 = 0
    for mode in MODES:
        for n, count in MATRIX_SIZES:
            m = satlib_clause_count(n)
            for i in range(count):
                f = random_3sat(n, m, 20_000 + i)
                cfg = SolverConfig(
                    mode=mode, analyze=2, cb_threshold=1, check_level="fine"
                )
                s = Solver(f.copy(), cfg)
                s.solve()
                for inv in ZERO_IDS[mode]:
                    if s.violations.get(inv, 0):
                        broken.append((mode, inv, n, i, s.violations[inv]))
                if mode == "wcb":
                    wcb_inv4 += s.violations.get(4, 0)
    ok = not broken and wcb_inv4 > 0
    _report(
        "invariant matrix",
        ok,
        " (200 instances/mode; zero-cell breaks: %s; observed weak-mode strong-watch violations: %d)"
        % (broken[:4] or "none", wcb_inv4),
    )
    assert broken == []
    assert wcb_inv4 >= 1


def test_fixture_replays_bit_exact():
    """The two scripted replays reproduce their pinned trails exactly."""
    out = s1_replay("lscb")
    ok = True
    ok &= out["lazy_v2"] is not None and out["lazy_v2"].index == 3
    ok &= out["lazy_level_v2"] == 1
    ok &= out["second_conflict"].index == 4
    ok &= out["snap_second_conflict"] == {
        "trail": [1, 2, -3, 5, -6],
        "levels": [1, 2, 1, 1, 2],
        "reasons": [None, None, 6, 2, 5],
        "head": 3,
    }
    ok &= out["snap_after_backtrack1"] == {
        "trail": [1, -3, 5, 2],
        "levels": [1, 1, 1, 1],
        "reasons": [None, 6, 2, 3],
        "head": 2,
    }
    ok &= out["third_conflict"].index == 4
    ok &= max(out["snap_third_conflict"]["levels"]) == 1

    s2 = s2_replay()
    from lazysat.analyze import analyze
    from lazysat.formula import lit_to_int

    learned = analyze(s2["rig"].state, s2["conflict"].lits, 2)
    chain = [(lit_to_int(p), k) for p, k in learned.steps]
    ok &= [lit_to_int(x) for x in learned.lits] == [2]
    ok &= chain == [
        (7, "reason"),
        (-5, "reason"),
        (-3, "lazy"),
        (-6, "reason"),
        (4, "reason"),
    ]
    _report(
        "replay fixtures", ok, " (MLI record, both conflicts, reimplication, resolution chain)"
    )
    assert ok


def test_analyze_strategy_equivalence():
    """Both analysis strategies install the same clause at corresponding
    conflicts, with the re-analysis strategy paying at least as many
    conflicts.  Correspondence ends when lazy reasons drive the strategies
    through different (individually sound) resolutions."""
    mismatches = []
    synced = 0
    undefined = 0
    instances = 0
    conflicts = [0, 0]
    for n, count in EQUIV_SIZES:
        m = satlib_clause_count(n)
        for i in range(count):
            f = random_3sat(n, m, 30_000 + i)
            out = LockstepRunner(f).run()
            instances += 1
            if out["mismatches"]:
                mismatches.append((n, i, out["mismatches"]))
            synced += out["synced_episodes"]
            undefined += out.get("undefined_episodes", 0)
            conflicts[0] += out["conflicts1"]
            conflicts[1] += out["conflicts2"]
    ok = not mismatches and conflicts[0] >= conflicts[1]
    _report(
        "analyze equivalence",
        ok,
        " (%d instances, %d corresponding episodes, %d lazy-divergent, conflicts %d >= %d)"
        % (instances, synced, undefined, conflicts[0], conflicts[1]),
    )
    assert mismatches == []
    assert conflicts[0] >= conflicts[1]


def test_propagation_count_trend():
    """Propagations on unsatisfiable instances: the lazy mode must have the
    strictly lowest mean of all four modes, and be at or below the restoring
    mode on >= 70% of instances.

    The paper's claim is that reimplying missed lower implications on demand
    saves propagations against reimplying them eagerly, so the pairwise
    baseline is ``rscb``.  ``wcb`` never reimplies: it has no repair work for
    the lazy mode to save, and which of the two is lower on one instance is
    decided by how their searches diverge.  It stays in the gate through the
    mean, and its pairwise share is printed without an assertion."""
    per = {mode: [] for mode in MODES}
    count = 0
    seed = 0
    while count < TREND_COUNT:
        f = random_3sat(TREND_VARS, TREND_CLAUSES, seed)
        seed += 1
        probe = Solver(
            f.copy(), SolverConfig(mode="ncb", analyze=2, cb_threshold=1)
        )
        if probe.solve().sat:
            continue
        count += 1
        per["ncb"].append(probe.stats.propagations)
        for mode in ("wcb", "rscb", "lscb"):
            cfg = SolverConfig(mode=mode, analyze=2, cb_threshold=1)
            s = Solver(f.copy(), cfg)
            verdict = s.solve()
            assert not verdict.sat
            per[mode].append(s.stats.propagations)
    means = {mode: statistics.mean(per[mode]) for mode in MODES}

    def share_at_or_below(other):
        return sum(1 for a, b in zip(per["lscb"], per[other]) if a <= b) / count

    share = share_at_or_below("rscb")
    weak_share = share_at_or_below("wcb")
    strictly_lowest = all(means["lscb"] < means[m] for m in ("ncb", "wcb", "rscb"))
    ok = strictly_lowest and share >= 0.70
    _report(
        "propagation-count trend",
        ok,
        " (N=%d UNSAT; means %s; lazy strictly lowest: %s; lazy<=restoring on %.1f%% "
        "of instances; lazy<=weak on %.1f%%, not asserted)"
        % (
            count,
            {m: round(v, 1) for m, v in means.items()},
            strictly_lowest,
            100 * share,
            100 * weak_share,
        ),
    )
    assert strictly_lowest, means
    assert share >= 0.70, "lazy mode at or below restoring mode on only %.1f%%" % (100 * share)


def test_learned_clause_soundness():
    """Every learned clause, before and after minimization, is falsified at
    creation and entailed by the original formula."""
    target = 10_000
    pairs = []
    falsification_failures = 0

    def make_hook(solver):
        def on_learn(_solver, pre, post):
            st = solver.state
            for learned in (pre, post):
                if not all(st.val[x] == FALSE for x in learned.lits):
                    nonlocal falsification_failures
                    falsification_failures += 1
            pairs.append(
                (
                    solver._original,
                    [solver_module.lit_to_int(x) for x in pre.lits],
                    [solver_module.lit_to_int(x) for x in post.lits],
                )
            )

        return on_learn

    seed = 0
    while len(pairs) < target:
        f = random_3sat(20, 91, 40_000 + seed)
        seed += 1
        cfg = SolverConfig(mode="lscb", analyze=2, cb_threshold=1, minimize=True)
        s = Solver(f.copy(), cfg)
        s._original = f
        s.on_learn = make_hook(s)
        s.solve()
    entailment_failures = 0
    for original, pre, post in pairs:
        if not entails(original, pre):
            entailment_failures += 1
        if post != pre and not entails(original, post):
            entailment_failures += 1
    ok = falsification_failures == 0 and entailment_failures == 0
    _report(
        "learned-clause soundness",
        ok,
        " (%d learned clauses over %d instances, %d falsification / %d entailment failures)"
        % (len(pairs), seed, falsification_failures, entailment_failures),
    )
    assert falsification_failures == 0
    assert entailment_failures == 0


def test_topological_order_after_reimplication():
    """The trail stays a topological order of the implication graph after
    every lazy-mode backtrack, across the randomized soak."""
    orig = solver_module.run_backtrack
    violations = []
    backtracks = [0]

    current = {}

    def spy(state, d, mode, stats=None):
        orig(state, d, mode, stats)
        backtracks[0] += 1
        found = [v for v in check_ids(state, current["formula"]) if v.invariant == 3]
        if found:
            violations.extend(found)

    solver_module.run_backtrack = spy
    try:
        for n, count in ((14, 40), (16, 40), (20, 40)):
            m = satlib_clause_count(n)
            for i in range(count):
                f = random_3sat(n, m, 50_000 + i)
                cfg = SolverConfig(mode="lscb", analyze=2, cb_threshold=1)
                s = Solver(f.copy(), cfg)
                current["formula"] = s.formula
                s.solve()
    finally:
        solver_module.run_backtrack = orig
    ok = not violations
    _report(
        "topological order after reimplication",
        ok,
        " (%d backtracks checked, %d violations)" % (backtracks[0], len(violations)),
    )
    assert violations == []


def test_determinism_byte_identical_csv():
    """The same benchmark invocation twice produces byte-identical CSV,
    and that CSV is pinned by its digest across versions."""
    from types import SimpleNamespace

    from lazysat.cli import bench_rows

    args = SimpleNamespace(
        analyze=2,
        cb_threshold=1,
        minimize=False,
        wall_time=False,
    )
    outputs = []
    for _ in range(2):
        instances = [
            ("i%d" % i, random_3sat(20, 91, 60_000 + i), 20, 91) for i in range(25)
        ]
        rows = bench_rows(instances, list(MODES), args)
        outputs.append(render_bench_csv(rows).encode())
    digest = hashlib.sha256(outputs[0]).hexdigest()
    ok = outputs[0] == outputs[1] and digest == BENCH_CSV_SHA256
    _report(
        "determinism",
        ok,
        " (%d bytes, %d rows, sha256 %s)"
        % (len(outputs[0]), outputs[0].count(b"\n") - 1, digest),
    )
    assert outputs[0] == outputs[1]
    assert digest == BENCH_CSV_SHA256


def _sha256(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def test_search_digest():
    """Every mode under two configurations solves a fixed sweep exactly as
    pinned: same verdict, model, Stats, violations and learned clauses.

    The line also prints one sub-digest per record part, so that a moved
    combined digest shows which part moved."""
    records = []
    for n, m in SEARCH_SIZES:
        for seed in range(60_000, 60_003):
            formula = random_3sat(n, m, seed)
            for options in SEARCH_CONFIGS:
                for mode in MODES:
                    records.append(solve_record(formula, SolverConfig(mode=mode, **options)))
    digest = _sha256(records)
    parts = {
        "verdict": [(r["sat"], r["model"]) for r in records],
        "stats": [r["stats"] for r in records],
        "violations": [r["violations"] for r in records],
        "learned": [r["learned"] for r in records],
    }
    subs = ", ".join("%s %s" % (name, _sha256(part)[:16]) for name, part in parts.items())
    detail = " (%d solves, sha256 %s; %s)" % (len(records), digest, subs)
    _report("search digest", digest == SEARCH_SHA256, detail)
    assert digest == SEARCH_SHA256
