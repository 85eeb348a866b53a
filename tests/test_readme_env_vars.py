"""README documents exactly the ``REPRO_*`` environment variables ``src/`` reads.

A variable name is any string constant under ``src/`` that fully matches
``REPRO_[A-Z_]+``; names listed in an ``__all__`` are Python exports
(``REPRO_SANITIZE_VAR``), not variables, and are skipped.
"""

import ast
import re
from pathlib import Path

__all__: list[str] = []

ROOT = Path(__file__).resolve().parents[1]
_VARIABLE = re.compile(r"REPRO_[A-Z_]+")


def _exported(tree: ast.Module) -> set[int]:
    """ids of the string constants inside ``__all__`` assignments."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                out.update(id(c) for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return out


def _read_in_src() -> set[str]:
    names: set[str] = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exported = _exported(tree)
        names.update(
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and _VARIABLE.fullmatch(node.value) and id(node) not in exported
        )
    return names


def test_readme_documents_every_repro_variable():
    documented = set(_VARIABLE.findall((ROOT / "README.md").read_text(encoding="utf-8")))
    read = _read_in_src()
    assert read, "found no REPRO_* variable under src/"
    assert read == documented, (
        f"read but undocumented: {sorted(read - documented)}; "
        f"documented but never read: {sorted(documented - read)}"
    )
