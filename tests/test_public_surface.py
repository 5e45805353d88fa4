"""The public surface carries no dead weight, read from the source with ``ast``.

Every name in ``uncertain_ssl.__all__``, and every public classmethod of an
exported class, is used by the package or the demos outside the module that
defines it, unless ``USED_ONLY_BY_READERS`` gives it a reason.  No module of
the package or the demos imports a name it never uses.
"""

import ast
import inspect
from pathlib import Path

import pytest

import uncertain_ssl

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "uncertain_ssl"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))

# Public names that nothing in the package or the demos calls, each kept for
# its readers.
USED_ONLY_BY_READERS = {
    "DEFAULT_RULE": "the quadrature rule, read by the benchmark's tracer",
    "overlap_integrand_approx": "the paper's surrogate integrand",
    "OverlapSolution": "the type the solvers return",
    "Dataset": "the type generate_dataset returns",
    "ClassifierOutput": "the type the classifiers return",
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _used_names(tree: ast.AST) -> set[str]:
    """Names a module reads: bare names and attribute names."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _home(name: str) -> Path:
    """The file of the submodule whose ``__all__`` lists ``name``."""
    for module in ("kernel", "overlaps", "risk", "simulate"):
        if name in getattr(uncertain_ssl, module).__all__:
            return PACKAGE / f"{module}.py"
    return PACKAGE / "__init__.py"


def _public_names() -> dict[str, Path]:
    """Dotted public name -> the file that defines it."""
    names = {}
    for name in uncertain_ssl.__all__:
        names[name] = _home(name)
        obj = getattr(uncertain_ssl, name)
        if inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                if isinstance(raw, classmethod) and not attr.startswith("_"):
                    names[f"{name}.{attr}"] = _home(name)
    return names


PUBLIC = _public_names()
USED = {path: _used_names(_tree(path)) for path in SOURCES}


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_public_name_used_outside_its_module(name):
    home = PUBLIC[name]
    attr = name.rpartition(".")[2]
    users = [path.name for path, used in USED.items() if path != home and attr in used]
    if name in USED_ONLY_BY_READERS:
        assert not users, f"{name} is used by {users}; drop it from USED_ONLY_BY_READERS"
    else:
        assert users, f"{name} is public, but nothing outside {home.name} uses it"


def _imported_names(tree: ast.Module) -> set[str]:
    """Names bound by the module's imports, ``from __future__`` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _exported(tree: ast.Module) -> set[str]:
    """The strings of a module-level ``__all__`` list."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    tree = _tree(path)
    unused = _imported_names(tree) - USED[path] - _exported(tree)
    assert not unused, f"{path.name} imports {sorted(unused)} without using them"
