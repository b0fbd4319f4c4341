"""Every top-level function and class in src/bczmap earns its place.

A name is live when `__init__` exports it (its lazy export table), when live
code uses it, or when it is on the short list of names only the benchmark
calls.  Module-level statements other than imports (constants, the
`__main__` call) and the module hooks the interpreter calls are live code.
An export in turn earns its place when a command reaches it, the benchmark
names it or the README names it.  A slow oracle that only the tests call
belongs in tests/oracles.py.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bczmap"

#: names only perfbench calls; each must still appear there and nowhere live
BENCHMARK_ONLY = {"shear_basis"}

#: module-level functions the interpreter calls on attribute lookup (PEP 562)
HOOKS = {"__getattr__", "__dir__"}


def _parse():
    """Top-level definitions by (module, name), each module's relative
    imports by local name (those inside functions too, and `__init__`'s
    export table), and the live roots."""
    defs, imports, roots = {}, {}, []
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        imp = imports[mod] = {}
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    imp[alias.asname or alias.name] = (node.module, alias.name)
        for node in tree.body:
            if isinstance(node, ast.Assign) and mod == "__init__" and \
                    [t.id for t in node.targets] == ["_EXPORTS"]:
                for module, names in ast.literal_eval(node.value).items():
                    imp.update({name: (module, name) for name in names})
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in HOOKS:
                defs[mod, node.name] = node
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots.append((mod, node))
    return defs, imports, roots


def _uses(mod, node, defs, imports):
    """The top-level definitions a node's code names, resolved through the
    module's own definitions and its relative imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            key = (mod, sub.id) if (mod, sub.id) in defs else imports[mod].get(sub.id)
            if key in defs:
                yield key


def _live(defs, imports, roots, extra=()):
    todo = [key for key in imports["__init__"].values() if key in defs]
    todo += [key for key in defs if key[1] in extra]
    for mod, node in roots:
        todo += _uses(mod, node, defs, imports)
    return _reach(defs, imports, todo)


def _reach(defs, imports, todo):
    """The definitions in `todo` and every definition their code names, in turn."""
    live = set()
    while todo:
        key = todo.pop()
        if key not in live:
            live.add(key)
            todo += _uses(key[0], defs[key], defs, imports)
    return live


def test_every_top_level_name_has_a_caller():
    defs, imports, roots = _parse()
    dead = set(defs) - _live(defs, imports, roots, BENCHMARK_ONLY)
    assert not dead, "no caller in src/, __init__ or the benchmark: " + ", ".join(
        f"{mod}.{name}" for mod, name in sorted(dead))


def test_benchmark_only_names_are_still_benchmark_only():
    defs, imports, roots = _parse()
    live = {name for _, name in _live(defs, imports, roots)}
    bench = "".join(p.read_text() for p in (ROOT / "perfbench").glob("*.py"))
    for name in BENCHMARK_ONLY:
        assert name not in live, f"{name} has a caller in src/; drop it from the list"
        assert f".{name}(" in bench, f"perfbench no longer calls {name}"


def test_every_export_is_used_by_a_command_the_benchmark_or_the_readme():
    # the export table is the API: a name that only the tests reach is an
    # oracle for tests/oracles.py, or dead
    defs, imports, roots = _parse()
    todo = [key for key in defs if key[0] == "cli"]
    todo += [key for mod, node in roots if mod == "cli" for key in _uses(mod, node, defs, imports)]
    commands = _reach(defs, imports, todo)
    bench = "".join(p.read_text() for p in (ROOT / "perfbench").glob("*.py"))
    readme = " ".join(re.findall(r"`([^`]*)`", (ROOT / "README.md").read_text()))
    unused = sorted(name for name, key in imports["__init__"].items() if key not in commands
                    and not re.search(rf"\b{name}\b", bench)
                    and not re.search(rf"\b{name}\b", readme))
    assert not unused, "no command, perfbench task or README line uses: " + ", ".join(unused)


def test_no_module_imports_numpy_or_scipy_at_module_level():
    # numpy and scipy are imported by the functions that use them, when they
    # run, so `import bczmap` and the commands that need neither load neither
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = {alias.name.split(".")[0] for node in tree.body if isinstance(node, ast.Import)
               for alias in node.names}
        top |= {node.module.split(".")[0] for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 0}
        assert not top & {"numpy", "scipy"}, path.name


def test_no_module_imports_dataclasses():
    # records are named tuples: `dataclasses` imports `inspect`, which costs
    # every fresh interpreter more than most bczmap modules do
    for path in sorted(SRC.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
        assert "dataclasses" not in names, path.name
