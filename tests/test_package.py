import ast
from pathlib import Path

import limshape

PACKAGE = Path(limshape.__file__).parent


def test_no_assert_statements():
    # `python -O` strips asserts, so invariants must raise real exceptions
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
