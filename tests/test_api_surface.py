"""The package holds only what the program runs.

Every public function or class defined at module level in src/vrips must
be re-exported by vrips/__init__.py or referenced from some other
statement in src/ or scripts/. A helper that only the tests call belongs
in tests/oracles.py.
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
