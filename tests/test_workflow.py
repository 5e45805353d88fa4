"""The CI workflow selects tests by marker (``pytest -m name``); a marker
that no test carries selects nothing and the step passes, so each must be
registered in pyproject.toml and carried by at least one test."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
SELECTED = re.compile(r"\bpytest\b[^\n]*\s-m\s+(\w+)")


def registered_markers() -> set[str]:
    """The marker names of pyproject.toml's ``markers`` list."""
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^markers = \[\n(.*?)^\]", text, re.M | re.S)
    return set(re.findall(r'^\s*"(\w+):', block.group(1), re.M)) if block else set()


def test_workflow_markers_are_registered():
    selected = SELECTED.findall(WORKFLOW.read_text())
    assert selected
    assert set(selected) <= registered_markers()


def test_workflow_markers_are_carried():
    sources = [path.read_text() for path in (ROOT / "tests").glob("test_*.py")]
    for marker in SELECTED.findall(WORKFLOW.read_text()):
        assert any(f"@pytest.mark.{marker}\n" in text for text in sources), marker
