"""Import and option hygiene.

Every name a package module imports is used there, and every name in a
module's ``__all__`` resolves on the loaded module.  A name counts as used
when the module loads it anywhere (attribute chains count through their
root name), mentions it in a string annotation, or lists it in
``__all__``.  ``from __future__`` imports are exempt.

Every name in a module's ``__all__`` has a program caller: some module in
``src/`` refers to it outside its own definition, or ``perfbench/`` names
it.  The few names only tests call are listed in ``TEST_ONLY_EXPORTS``
with the reason each stays.

Every defaulted parameter of a package function is passed by some call to
a function of that name in ``src/`` or ``perfbench/``: a default that no
program overrides is a constant, not an option, however many tests set
it.  The few options only tests set are listed in ``TEST_ONLY_OPTIONS``
with the reason each stays.

Every function the benchmark's tracer wraps, and every result attribute
its counter hooks read, exists on the package, so a rename or deletion
that would break a traced benchmark run fails here first.

The oracle checks the Morse side, so in a fresh interpreter importing it
loads no package module beyond the expression, metric and problem layers,
``compactify``, ``errors`` and the exact layer ``intlinalg``: never
``critical``, ``flow`` or ``homology``.
"""

import ast
import dataclasses
import importlib
import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "morsevanish"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported(tree):
    """(bound name, line) for each import in the module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out.append((a.asname or a.name.split(".")[0], node.lineno))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for a in node.names:
                out.append((a.asname or a.name, node.lineno))
    return out


def _string_annotations(tree):
    for node in ast.walk(tree):
        notes = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            notes = [a.annotation for a in (args.posonlyargs + args.args
                                             + args.kwonlyargs)]
            notes += [args.vararg and args.vararg.annotation,
                      args.kwarg and args.kwarg.annotation, node.returns]
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        for note in notes:
            for sub in ast.walk(note) if note is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value,
                                                                str):
                    yield ast.parse(sub.value, mode="eval")


def _exports(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


def _used(tree):
    names = set()
    for root in [tree, *_string_annotations(tree)]:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                names.add(node.id)
    names.update(_exports(tree))
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree)
              if name not in used]
    assert not unused, f"{path.name} imports but never uses: " + \
        ", ".join(unused)


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from typing import List, Tuple\n"
                     "import os.path\n"
                     "x: 'List[int]' = []\n")
    used = _used(tree)
    assert [n for n, _ in _imported(tree) if n not in used] == \
        ["Tuple", "os"]


def _stale_exports(module):
    return [n for n in getattr(module, "__all__", ())
            if not hasattr(module, n)]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_export_resolves(path):
    name = "morsevanish" + ("" if path.stem == "__init__"
                            else "." + path.stem)
    stale = _stale_exports(importlib.import_module(name))
    assert not stale, f"{path.name} exports undefined names: {stale}"


def test_the_check_sees_a_stale_export():
    module = types.ModuleType("m")
    exec("__all__ = ['kept', 'gone']\nkept = 1\n", module.__dict__)
    assert _stale_exports(module) == ["gone"]


# names in __all__ whose only callers are tests, and why each stays
TEST_ONLY_EXPORTS = {
    "integrate_flow": "criterion 08 integrates one recorded flowline",
    "energy": "criterion 08's quadrature on wiggled paths",
    "induced_maps_agree": "criterion 06's functoriality",
    "evaluate": "the tree-walking reference the tape is tested on",
    "morsify": "the paper's Morsification of a degenerate f",
}


def _referenced(nodes):
    """Names the code of ``nodes`` loads, as bare names or attributes, and
    names in its string annotations."""
    out = set()
    for root in nodes + [a for n in nodes for a in _string_annotations(n)]:
        for node in ast.walk(root):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    return out


def _references(tree):
    """(top-level def or class name, or None for any other statement,
    names that statement refers to) for each statement of the module."""
    return [(n.name if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)) else None,
             _referenced([n])) for n in tree.body]


def _named_in(trees):
    """Names ``perfbench/`` loads or spells in a dotted string, as its
    tracer's targets are."""
    out = set()
    for tree in trees:
        out |= _referenced([tree])
        out.update(part for node in ast.walk(tree)
                   if isinstance(node, ast.Constant)
                   and isinstance(node.value, str)
                   for part in node.value.split("."))
    return out


def _uncalled_exports(package, bench):
    """(module, name) for each export no code in ``package`` (a dict of
    module name to tree) refers to outside the top-level def or class of
    that name in its own module, and ``bench`` does not name."""
    refs = {m: _references(tree) for m, tree in package.items()}
    return [(mod, name) for mod, tree in package.items()
            for name in _exports(tree)
            if name not in bench and not any(
                name in names for m, stmts in refs.items()
                for owner, names in stmts
                if m != mod or owner != name)]


def test_every_export_has_a_program_caller():
    package = {p.stem: ast.parse(p.read_text()) for p in MODULES}
    bench = _named_in(ast.parse(p.read_text())
                      for p in (ROOT / "perfbench").rglob("*.py"))
    uncalled = _uncalled_exports(package, bench)
    unlisted = [f"{m}.{n}" for m, n in uncalled if n not in TEST_ONLY_EXPORTS]
    assert not unlisted, "only tests call: " + ", ".join(unlisted)
    stale = set(TEST_ONLY_EXPORTS) - {n for _, n in uncalled}
    assert not stale, f"the keep-list names called exports: {sorted(stale)}"


def test_the_check_sees_an_unused_export():
    package = {
        "a": ast.parse("__all__ = ['used', 'unused', 'traced', 'self_only',"
                       " 'Node']\n"
                       "def used(): pass\n"
                       "def unused(): pass\n"
                       "def traced(): pass\n"
                       "def self_only(n): return self_only(n - 1)\n"
                       "class Node:\n"
                       "    def up(self) -> 'Node': pass\n"),
        "b": ast.parse("from .a import used, unused\n"
                       "def g() -> 'int': return used()\n"),
    }
    bench = _named_in([ast.parse("TARGETS = (('a', 'traced'),)\n")])
    assert _uncalled_exports(package, bench) == [
        ("a", "unused"), ("a", "self_only"), ("a", "Node")]


def _defaulted(tree):
    """(call name, parameter, positional slot or None, line) for each
    defaulted parameter of each def.  Methods other than static ones skip
    their first parameter; ``__init__`` is called by its class name."""
    out = []

    def visit(node, cls):
        for ch in ast.iter_child_nodes(node):
            if isinstance(ch, ast.ClassDef):
                visit(ch, ch.name)
                continue
            if not isinstance(ch, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(ch, cls)
                continue
            a = ch.args
            pos = a.posonlyargs + a.args
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in ch.decorator_list)
            skip = 1 if cls is not None and not static else 0
            name = cls if cls is not None and ch.name == "__init__" \
                else ch.name
            first = len(pos) - len(a.defaults)
            out.extend((name, p.arg, i - skip, ch.lineno)
                       for i, p in enumerate(pos) if i >= first)
            out.extend((name, p.arg, None, ch.lineno)
                       for p, d in zip(a.kwonlyargs, a.kw_defaults)
                       if d is not None)
            visit(ch, None)

    visit(tree, None)
    return out


def _calls(trees):
    """Calls grouped by the called name (a bare name or an attribute)."""
    by_name = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else None
                by_name.setdefault(name, []).append(node)
    return by_name


def _passes(call, param, slot):
    if any(k.arg is None or k.arg == param for k in call.keywords):
        return True
    if slot is None:
        return False
    return slot < len(call.args) or any(
        isinstance(a, ast.Starred) for a in call.args[:slot + 1])


def _never_set(defs_tree, calls):
    """(``name(param)``, line) for each defaulted parameter of
    ``defs_tree`` that no call in ``calls`` passes."""
    return [(f"{name}({param})", line)
            for name, param, slot, line in _defaulted(defs_tree)
            if not any(_passes(c, param, slot) for c in calls.get(name, ()))]


def _unset_options(root, modules):
    """(file name, ``name(param)``, line) for each defaulted parameter of
    ``modules`` that no call in ``src/`` or ``perfbench/`` under ``root``
    passes; calls in ``tests/`` do not count."""
    calls = _calls(ast.parse(p.read_text(), filename=str(p))
                   for d in ("src", "perfbench")
                   for p in sorted((root / d).rglob("*.py")))
    return [(path.name, opt, line) for path in modules
            for opt, line in _never_set(ast.parse(path.read_text()), calls)]


# defaulted parameters whose only callers are tests, and why each stays
TEST_ONLY_OPTIONS = {
    "integrate_flow(targets)": "a test-only export: criterion 08 integrates "
                               "one flowline into its minima",
    "energy(endpoint_values)": "a test-only export: criterion 08's wiggled "
                               "paths have no converged endpoints",
}


def test_every_defaulted_parameter_has_a_caller():
    unset = _unset_options(ROOT, MODULES)
    unlisted = [f"{name}: {opt} line {line}" for name, opt, line in unset
                if opt not in TEST_ONLY_OPTIONS]
    assert not unlisted, "no program ever sets: " + ", ".join(unlisted)
    stale = set(TEST_ONLY_OPTIONS) - {opt for _, opt, _ in unset}
    assert not stale, f"the keep-list names options a program sets: " \
        f"{sorted(stale)}"


def test_the_check_sees_a_parameter_no_caller_sets():
    defs = ast.parse("def f(a, b=1, *, c=2): pass\n"
                     "def g(x=0, y=0): pass\n"
                     "class K:\n"
                     "    def __init__(self, u=1): pass\n"
                     "    def m(self, v=1, w=2): pass\n")
    calls = _calls([ast.parse("f(1, 2)\n"
                              "g(**opts)\n"
                              "K(u=3).m(4)\n")])
    assert _never_set(defs, calls) == [("f(c)", 1), ("m(w)", 5)]


def test_the_check_sees_a_parameter_only_tests_set(tmp_path):
    files = {"src/m.py": "def f(a, b=1): pass\n"
                         "def g(c=1): pass\n"
                         "f(0)\n",
             "perfbench/run.py": "g(c=2)\n",
             "tests/test_m.py": "f(0, b=2)\n"}
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    assert _unset_options(tmp_path, [tmp_path / "src" / "m.py"]) == [
        ("m.py", "f(b)", 1)]


def _tracing():
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _has(owner, name):
    return hasattr(owner, name) or (dataclasses.is_dataclass(owner) and any(
        f.name == name for f in dataclasses.fields(owner)))


def test_every_traced_name_resolves():
    tracing = _tracing()
    missing = []
    for mod_name, attr, _, _ in tracing.TARGETS:
        owner = importlib.import_module(f"{tracing.PACKAGE}.{mod_name}")
        for part in attr.split("."):
            if not _has(owner, part):
                missing.append(f"{mod_name}.{attr}")
                break
            owner = getattr(owner, part)
    assert not missing, f"the tracer wraps missing names: {missing}"


# (module, class, attribute) read off results by the tracer's counter hooks
HOOK_READS = [
    ("flow", "ContinuationResult", "halvings"),
    ("flow", "ContinuationResult", "warnings"),
    ("flow", "BoundaryCountResult", "warnings"),
    ("critical", "CriticalSet", "n_starts"),
    ("critical", "CriticalSet", "n_converged"),
    ("critical", "CriticalSet", "points"),
    ("intlinalg", "ChainComplexData", "dims"),
    ("oracle", "CubicalPair", "resolution"),
    ("homology", "MorseComplex", "points"),
]


@pytest.mark.parametrize("mod_name,cls,attr", HOOK_READS,
                         ids=[f"{c}.{a}" for _, c, a in HOOK_READS])
def test_traced_results_carry_what_the_hooks_read(mod_name, cls, attr):
    owner = getattr(importlib.import_module(f"morsevanish.{mod_name}"), cls)
    assert _has(owner, attr)


def test_the_check_sees_a_missing_field():
    @dataclasses.dataclass
    class R:
        kept: int

    assert _has(R, "kept") and not _has(R, "gone")


ORACLE_LAYERS = {"errors", "expr", "metric", "problem", "compactify",
                 "intlinalg", "oracle"}


def _loaded_by(module):
    """Package modules (without the package prefix) that importing
    ``module`` loads in a fresh interpreter."""
    code = (f"import sys, {module}; print(*sorted(n for n in sys.modules "
            "if n.startswith('morsevanish.')))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    return {n.split(".", 1)[1] for n in out.stdout.split()}


def test_the_oracle_loads_only_the_exact_layer():
    extra = _loaded_by("morsevanish.oracle") - ORACLE_LAYERS
    assert not extra, f"importing the oracle loads {sorted(extra)}"


def test_the_layer_check_sees_the_morse_side():
    assert {"critical", "flow"} <= _loaded_by("morsevanish.homology")
