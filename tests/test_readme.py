"""The README's Library example runs, and says what it computes."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_states_its_values():
    source = _library_example()
    lines = source.splitlines()
    namespace: dict = {}
    stated = 0
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        _, _, comment = lines[stmt.end_lineno - 1].partition("#")
        claim = comment.split(":")[0].strip()
        if isinstance(stmt, ast.Expr) and claim:
            assert eval(code, namespace) == ast.literal_eval(claim), code
            stated += 1
        else:
            exec(code, namespace)
    assert stated == 5
