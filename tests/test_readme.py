"""The README's Python example runs as printed."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _stated_value(line):
    """(expression, value) for a line `expr  # literal`, else None."""
    expr, _, comment = line.partition("#")
    try:
        ast.parse(expr.strip(), mode="eval")
        return expr.strip(), ast.literal_eval(comment.strip())
    except (SyntaxError, ValueError):
        return None


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    checked = 0
    for block in blocks:
        namespace = {}
        exec(compile(block, str(README), "exec"), namespace)
        for line in block.splitlines():
            stated = _stated_value(line)
            if stated is not None:
                expr, value = stated
                assert eval(expr, namespace) == value, line
                checked += 1
    assert checked >= 3
