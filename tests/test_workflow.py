"""The CI workflow names test node ids on its command lines; a stale one
fails only in CI, so each must name a class or function that exists."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
NODE_ID = re.compile(r"\btests/[\w/]+\.py(?:::\w+)+")


def resolves(node_id: str) -> bool:
    """Whether every name after the file path names a class or function
    defined in the scope before it."""
    path, *names = node_id.split("::")
    scope = ast.parse((ROOT / path).read_text()).body
    for name in names:
        node = next(
            (n for n in scope
             if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name),
            None,
        )
        if node is None:
            return False
        scope = node.body
    return True


def test_workflow_node_ids_resolve():
    node_ids = NODE_ID.findall(WORKFLOW.read_text())
    assert node_ids
    assert [i for i in node_ids if not resolves(i)] == []


def test_stale_node_ids_do_not_resolve():
    assert resolves("tests/test_workflow.py::test_workflow_node_ids_resolve")
    assert not resolves("tests/test_workflow.py::test_missing")
    assert not resolves("tests/test_workflow.py::resolves::inner")
