"""The package holds only what the program runs, and its modules meet
through public names.

Every public function or class defined at module level in src/vrips must
be re-exported by vrips/__init__.py or referenced from some other
statement in src/ or scripts/. A helper that only the tests call belongs
in tests/oracles.py. No module of src/vrips reads or imports an
underscore name that only another module defines; dunders are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vrips"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names(node) -> set[str]:
    """Every name a statement reads, reaches as an attribute, or imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def unused_public_names() -> list[str]:
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    statements = [(path, stmt) for path in sources for stmt in _parse(path).body]
    uses = [(path, stmt, _names(stmt)) for path, stmt in statements]
    exported = {name for path, stmt, names in uses if path.name == "__init__.py"
                and isinstance(stmt, ast.ImportFrom) for name in names}
    unused = []
    for path, stmt in statements:
        if path.parent != PACKAGE or not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        name = stmt.name
        if name.startswith("_") or name in exported:
            continue
        if not any(name in names for _, other, names in uses if other is not stmt):
            unused.append(f"{path.stem}.{name}")
    return unused


def test_every_public_name_is_exported_or_used():
    assert unused_public_names() == []


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _defined(tree: ast.Module) -> set[str]:
    """Underscore names a module defines: functions, classes and methods,
    the names it assigns and the attributes it sets."""
    out = set()
    for sub in ast.walk(tree):
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(sub.name)
        elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store):
            out.add(sub.attr)
    return {name for name in out if _private(name)}


def private_reads(modules: dict[str, ast.Module]) -> list[str]:
    """'reader reads owner.name' for each underscore name that a module
    reads, as a name or an attribute, or imports, where another module
    defines it and the reader does not."""
    defined = {mod: _defined(tree) for mod, tree in modules.items()}
    hits = []
    for reader, tree in modules.items():
        for name in sorted(n for n in _names(tree) if _private(n) and n not in defined[reader]):
            hits += [f"{reader} reads {owner}.{name}" for owner in sorted(defined)
                     if name in defined[owner]]
    return hits


def test_modules_meet_through_public_names():
    assert private_reads({path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}) == []


def test_private_reads_are_found():
    modules = {
        "a": "def _helper():\n    pass\nclass K:\n    def _method(self):\n        self._x = 1\n",
        "b": "from .a import _helper\n",
        "c": "def f(k):\n    return k._method(), k._x, k._own\nclass L:\n    _own = 0\n",
        "d": "__version__ = '1'\n",
        "e": "from .d import __version__\n",
    }
    assert private_reads({name: ast.parse(text) for name, text in modules.items()}) == [
        "b reads a._helper", "c reads a._method", "c reads a._x"]
