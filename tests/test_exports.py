"""Every name the package exports is used by the package, a demo or the benchmark."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "segflow"


def test_every_export_is_referenced():
    """A name is referenced when it is read as a name or an attribute, so its
    own ``def`` or ``class`` and the ``from .x import`` line that exports it
    do not count."""
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = [alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    referenced = set()
    for path in [*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py"),
                 *(ROOT / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert len(exported) > 50
    assert [name for name in exported if name not in referenced] == []
