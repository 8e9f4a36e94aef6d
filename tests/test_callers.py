"""Code with no caller is deleted: every top-level function, class and assigned
name of `src/ssmin`, private ones included, is used somewhere in `src/ssmin`
besides its own definition, and so is every method.

The scan reads the source with `ast`.  A name counts as used where a loaded
name or attribute spells it inside another top-level statement of any module;
a method (a function defined in a class body) where a loaded attribute spells
it outside the method itself.  Dunder methods, which syntax reaches, and
overrides of a base class's attribute, which the base class reaches (as
`_replace` calls `_make`), are exempt.  Import lines bind names without
loading them, so they do not count.  Tests and benchmarks do not count either:
code only they call belongs in `tests/oracles.py`.  Each imported name is
loaded by its module too, unless its import line says why it is not.
"""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import ssmin

# Names nothing in src/ssmin uses, each with the reason it stays.
UNCALLED = {
    "surface.frame_from_jets": "perfbench's tracer test patches and counts it in the "
                               "surface, curvature and pde namespaces; it moves to "
                               "tests/oracles.py once that test stops pinning it",
    "sampling.SplitMix64.uniform": "perfbench's tracer wraps it (its METHODS); ROADMAP "
                                   "item 3 moves it to tests/oracles.py",
}


def _loaded_names(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names.add(sub.attr)
    return names


def _defined_names(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a function or class, or the
    names an assignment binds (dunder names such as `__all__` excepted)."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [sub.id for target in targets for sub in ast.walk(target)
            if isinstance(sub, ast.Name) and not sub.id.startswith("__")]


def _attribute_loads(node: ast.AST) -> Counter:
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))


def _needs_caller(cls: type, item: ast.stmt) -> bool:
    """Whether a statement of the body of class `cls` defines a method held to
    the scan: neither a dunder nor an override of an attribute of a base class."""
    return (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (item.name.startswith("__") and item.name.endswith("__"))
            and not any(item.name in vars(base) for base in cls.__mro__[1:]))


def _uncalled() -> set[str]:
    package = Path(ssmin.__file__).parent
    statements = []  # (module, statement, names it loads)
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            statements.append((path.stem, stmt, _loaded_names(stmt)))
    attribute_loads = sum((_attribute_loads(stmt) for _, stmt, _ in statements), Counter())
    uncalled = set()
    for module, stmt, _ in statements:
        for name in _defined_names(stmt):
            if not any(name in names for _, other, names in statements if other is not stmt):
                uncalled.add(f"{module}.{name}")
        if isinstance(stmt, ast.ClassDef):
            cls = getattr(importlib.import_module(f"ssmin.{module}"), stmt.name)
            for item in stmt.body:  # a method's calls of itself do not count
                if (_needs_caller(cls, item)
                        and attribute_loads[item.name] == _attribute_loads(item)[item.name]):
                    uncalled.add(f"{module}.{stmt.name}.{item.name}")
    return uncalled


def test_every_public_function_and_class_has_a_caller_in_the_package():
    # private functions and classes, and assigned names, are held to it too; an
    # allow-list entry whose name gains a caller, or goes, must leave the list
    assert _uncalled() == set(UNCALLED)


def test_the_scan_sees_private_functions_and_assigned_names():
    module = ast.parse("def _helper(): pass\n_TABLE = 1\nLIMIT: int = 2\n__all__ = []\n")
    assert [name for stmt in module.body for name in _defined_names(stmt)] == [
        "_helper", "_TABLE", "LIMIT"]


def test_the_scan_sees_methods_but_not_dunders_or_overrides():
    source = ("class Point(tuple):\n"
              "    def norm(self): return self.norm()\n"
              "    def __neg__(self): pass\n"
              "    def count(self): pass\n")
    namespace = {}
    exec(source, namespace)
    [stmt] = ast.parse(source).body
    # __neg__ is a dunder and count overrides tuple.count; norm calls only itself
    assert [item.name for item in stmt.body if _needs_caller(namespace["Point"], item)] == [
        "norm"]
    assert _attribute_loads(stmt)["norm"] == _attribute_loads(stmt.body[0])["norm"] == 1


def test_the_package_binds_only_its_version():
    # each name is imported from the module that defines it, never from `ssmin`
    path = Path(ssmin.__file__)
    body = ast.parse(path.read_text(), str(path)).body
    assert not [stmt for stmt in body if isinstance(stmt, (ast.Import, ast.ImportFrom))]
    bound = {sub.id for stmt in body for sub in ast.walk(stmt)
             if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)}
    bound |= {stmt.name for stmt in body
              if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    assert bound == {"__version__"}


def _unused_imports(source: str) -> tuple[list[str], list[str]]:
    """The names a module imports and never loads: those held to the scan, and
    those exempt, whose import line carries `# noqa: F401` and a reason."""
    tree = ast.parse(source)
    lines = source.splitlines()
    loaded = {sub.id for sub in ast.walk(tree)
              if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
    unused, exempt = [], []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in loaded:
                    noqa = re.search(r"#\s*noqa: F401\s+\S", lines[alias.lineno - 1])
                    (exempt if noqa else unused).append(name)
    return unused, exempt


def test_every_imported_name_is_loaded():
    exempt = set()
    for path in sorted(Path(ssmin.__file__).parent.glob("*.py")):
        unused, kept = _unused_imports(path.read_text())
        assert unused == [], path.name
        exempt |= {f"{path.stem}.{name}" for name in kept}
    # perfbench's tracer test patches these namespaces; an entry that gains a
    # load, or goes, leaves the set
    assert exempt == {"curvature.frame_from_jets", "pde.frame_from_jets"}


def test_the_import_scan_needs_a_reason_to_exempt():
    source = ("import os\n"
              "import sys  # noqa: F401\n"
              "import re  # noqa: F401  kept for its side effect\n"
              "import os.path\n"
              "from a import b, c as d\n"
              "print(b)\n")
    assert _unused_imports(source) == (["os", "sys", "os", "d"], ["re"])
