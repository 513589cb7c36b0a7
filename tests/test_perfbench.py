import ast
import importlib
import os

from lazysat.cli import BENCH_STATS
from lazysat.solver import MODES
from support import ZERO_IDS

RUN_PY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "run.py")

# Patched by install_spans but gone since BCP runs in one frame; its span
# reads 0 until a change to the benchmark drops it.
KNOWN_MISSING = {("Propagator", "propagate_literal")}


def _install_spans_targets():
    """(owner name, owner object, attr) for each tracer.patch call in install_spans,
    with the owner resolved through run.py's own lazysat imports."""
    with open(RUN_PY) as fh:
        tree = ast.parse(fh.read())
    owners = {}
    spans = None
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lazysat"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                owners[alias.asname or alias.name] = getattr(module, alias.name)
        elif isinstance(node, ast.FunctionDef) and node.name == "install_spans":
            spans = node
    assert spans is not None, "perfbench/run.py has no install_spans"
    out = []
    for node in ast.walk(spans):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "patch":
            owner, attr = node.args[0].id, node.args[1].value
            out.append((owner, owners[owner], attr))
    return out


def test_perfbench_spans_resolve_in_the_package():
    # A span whose target is renamed away is skipped silently and its
    # per-layer metric reads 0, so every patched name must still exist where
    # the tracer looks it up: in a class's own namespace, or on a module.
    targets = _install_spans_targets()
    assert len(targets) > len(KNOWN_MISSING)
    missing = set()
    for name, owner, attr in targets:
        found = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
        if not found:
            missing.add((name, attr))
    assert missing == KNOWN_MISSING


def test_perfbench_copies_match_the_package():
    # run.py keeps its own copies of these constants; read them without
    # importing it, so a drift fails here rather than in the benchmark
    with open(RUN_PY) as fh:
        tree = ast.parse(fh.read())
    copies = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and getattr(node.targets[0], "id", None) in ("MODES", "GUARANTEED", "BENCH_ROW_FIELDS")
    }
    assert copies == {"MODES": MODES, "GUARANTEED": ZERO_IDS, "BENCH_ROW_FIELDS": BENCH_STATS}
