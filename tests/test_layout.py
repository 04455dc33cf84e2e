"""Package layout rules checked on the source text."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "chtransition"


def test_no_private_names_imported_across_modules():
    offences = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0 and node.module:
                offences.extend(
                    f"{path.name}:{node.lineno}: {alias.name} from .{node.module}"
                    for alias in node.names
                    if alias.name.startswith("_")
                )
    assert not offences, "private names imported across modules:\n" + "\n".join(offences)
