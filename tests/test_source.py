"""Source-level checks on the package itself."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "lazysat")
PERFBENCH = os.path.join(ROOT, "perfbench")

# Functions that are part of the library's API although neither the package
# nor the benchmark calls them.
ENTRY_POINTS = set()


def _modules(directory):
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            path = os.path.join(directory, name)
            with open(path) as fh:
                yield os.path.relpath(path, ROOT), ast.parse(fh.read())


def test_every_function_in_src_is_used_outside_the_tests():
    # A helper that only tests call belongs in tests/support.py.  A use is
    # an attribute, a name or an imported name in src/ or perfbench/, or a
    # string constant in perfbench/, which patches functions by name.
    defined = {}
    used = set()
    for directory in (SRC, PERFBENCH):
        for path, tree in _modules(directory):
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.alias):
                    used.add(node.name)
                elif isinstance(node, ast.Constant) and directory == PERFBENCH:
                    used.add(node.value)
                elif isinstance(node, ast.FunctionDef) and directory == SRC:
                    defined.setdefault(node.name, "%s:%d" % (path, node.lineno))
    unused = sorted(
        "%s (%s)" % (name, where)
        for name, where in defined.items()
        if name not in used
        and name not in ENTRY_POINTS
        and not (name.startswith("__") and name.endswith("__"))
    )
    assert not unused, "functions nothing in src/ or perfbench/ uses: " + ", ".join(unused)
