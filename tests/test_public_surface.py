"""The public surface carries no dead weight, read from the source with ``ast``.

Every name in ``uncertain_ssl.__all__``, and every public classmethod of an
exported class, is used by the package or the demos outside the module that
defines it, unless ``USED_ONLY_BY_READERS`` gives it a reason.  Every
property of an exported class is read by the package or the demos.  Every
parameter with a default, of every exported function, is passed by some call
there outside its module.  No module of the package or the demos imports a
name it never uses.  Every name the README spells in inline code as
``module.name``, or as a bare API-style name, is one the package has.
"""

import ast
import builtins
import importlib
import inspect
import re
from pathlib import Path

import pytest

import uncertain_ssl
from uncertain_ssl import cli

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
TREES = {path: _tree(path) for path in SOURCES}
USED = {path: _used_names(tree) for path, tree in TREES.items()}


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_public_name_used_outside_its_module(name):
    home = PUBLIC[name]
    attr = name.rpartition(".")[2]
    users = [path.name for path, used in USED.items() if path != home and attr in used]
    if name in USED_ONLY_BY_READERS:
        assert not users, f"{name} is used by {users}; drop it from USED_ONLY_BY_READERS"
    else:
        assert users, f"{name} is public, but nothing outside {home.name} uses it"


def _public_properties() -> list[str]:
    """``Class.property`` for every public property of every exported class."""
    found = []
    for name in uncertain_ssl.__all__:
        obj = getattr(uncertain_ssl, name)
        if inspect.isclass(obj):
            found += [
                f"{name}.{attr}"
                for attr, raw in vars(obj).items()
                if isinstance(raw, property) and not attr.startswith("_")
            ]
    return found


READ_ATTRIBUTES = {
    node.attr
    for tree in TREES.values()
    for node in ast.walk(tree)
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
}


@pytest.mark.parametrize("name", sorted(_public_properties()))
def test_public_property_read(name):
    # A property's definition is a function, not an attribute read, so it
    # does not count as a use of itself.
    attr = name.rpartition(".")[2]
    assert attr in READ_ATTRIBUTES, f"{name} is public, but nothing in the package or demos reads it"


def _defaulted_parameters() -> dict[str, tuple[Path, int]]:
    """``function.parameter`` -> (home file, position) for every parameter
    with a default of every exported function."""
    found = {}
    for name in uncertain_ssl.__all__:
        obj = getattr(uncertain_ssl, name)
        if not inspect.isfunction(obj):
            continue
        for position, param in enumerate(inspect.signature(obj).parameters.values()):
            if param.default is not param.empty:
                found[f"{name}.{param.name}"] = (_home(name), position)
    return found


def _passes(call: ast.Call, function: str, param: str, position: int) -> bool:
    """Whether ``call`` calls ``function`` and passes ``param`` to it."""
    func = call.func
    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if called != function:
        return False
    return len(call.args) > position or any(kw.arg == param for kw in call.keywords)


DEFAULTED = _defaulted_parameters()
CALLS = {
    path: [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    for path, tree in TREES.items()
}


@pytest.mark.parametrize("name", sorted(DEFAULTED))
def test_defaulted_parameter_passed_outside_its_module(name):
    home, position = DEFAULTED[name]
    function, _, param = name.partition(".")
    callers = [
        path.name
        for path, calls in CALLS.items()
        if path != home and any(_passes(call, function, param, position) for call in calls)
    ]
    assert callers, f"nothing outside {home.name} passes {param} to {function}"


def _imported_names(tree: ast.Module) -> set[str]:
    """Names bound by the module's imports, ``from __future__`` aside; a star
    import from a package module binds the names of its ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name == "*":
                    names |= _exported(TREES[PACKAGE / f"{node.module}.py"])
                else:
                    names.add(alias.asname or alias.name)
    return names


def _exported(tree: ast.Module) -> set[str]:
    """The strings of a module-level ``__all__``: a literal list, extended by
    each ``__all__ += module.__all__`` with that package module's list."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= set(ast.literal_eval(node.value))
        elif isinstance(node, ast.AugAssign) and getattr(node.target, "id", None) == "__all__":
            value = node.value
            assert isinstance(value, ast.Attribute) and value.attr == "__all__", ast.dump(value)
            names |= _exported(TREES[PACKAGE / f"{value.value.id}.py"])
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    tree = TREES[path]
    unused = _imported_names(tree) - USED[path] - _exported(tree)
    assert not unused, f"{path.name} imports {sorted(unused)} without using them"


MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
# Last parts that make a dotted span a file name, like `usefulness.dat`.
FILE_SUFFIXES = {"dat", "json"}


def _readme_spans() -> list[str]:
    """The README's inline code spans, its fenced blocks left out."""
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    return re.findall(r"`([^`\n]+)`", text)


def _lookup(dotted: str):
    """The object a dotted name under the package names; AttributeError if none."""
    head, *rest = dotted.split(".")
    if head in MODULES:
        obj = importlib.import_module(f"uncertain_ssl.{head}")
    else:
        obj = getattr(uncertain_ssl, head)
    for part in rest:
        obj = getattr(obj, part)
    return obj


def test_readme_dotted_references_resolve():
    # a span that starts with a package module or an exported name, such as
    # `kernel.DEFAULT_RULE` or `EpsilonMixture.from_samples(ds.label_eps)`
    missing = []
    for span in _readme_spans():
        match = re.match(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span)
        if match is None:
            continue
        parts = match.group().split(".")
        if parts[0] not in MODULES | set(uncertain_ssl.__all__) or parts[-1] in FILE_SUFFIXES:
            continue
        try:
            _lookup(match.group())
        except AttributeError:
            missing.append(match.group())
    assert missing == []


def _package_words() -> set[str]:
    """Every exported name, attribute or field of an exported class,
    parameter of an exported function and config key of a command, and every
    builtin."""
    words = set(uncertain_ssl.__all__) | set(dir(builtins))
    for name in uncertain_ssl.__all__:
        obj = getattr(uncertain_ssl, name)
        if inspect.isclass(obj):
            words |= set(dir(obj)) | set(getattr(obj, "__dataclass_fields__", ()))
        elif callable(obj):
            words |= set(inspect.signature(obj).parameters)
    for command in cli._COMMANDS.values():
        words |= set(command.defaults)
    return words


def test_readme_names_are_package_names():
    # a bare span written like an API name: snake_case with an underscore,
    # or a capitalised CamelCase word such as `EpsilonMixture`
    api_like = re.compile(r"[A-Za-z]\w*_\w*|[A-Z][a-z]\w*")
    words = _package_words()
    unknown = [s for s in _readme_spans() if api_like.fullmatch(s) and s not in words]
    assert unknown == []
