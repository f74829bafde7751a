"""The package's modules share only public names."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tendonctl"


def test_no_module_imports_an_underscore_name_of_another():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "tendonctl"):
                source = "." * node.level + (node.module or "")
                found += [f"{path.name}: {alias.name} from {source}"
                          for alias in node.names if alias.name.startswith("_")]
    assert not found, "\n".join(found)
