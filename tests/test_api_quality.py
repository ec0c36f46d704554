"""Meta-tests over the public API surface.

Production-quality guards: every exported name resolves, every public
callable and class carries a docstring, module ``__all__`` lists stay
free of duplicates and dead entries, and the execution-backend choice
is made in one module only.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.core",
    "repro.distsim",
    "repro.baselines",
    "repro.overlay",
    "repro.experiments",
    "repro.service",
    "repro.telemetry",
    "repro.testing",
    "repro.utils",
]


def _all_modules():
    names = set(PACKAGES)
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        if hasattr(pkg, "__path__"):
            for info in pkgutil.iter_modules(pkg.__path__):
                names.add(f"{pkg_name}.{info.name}")
    return sorted(names)


MODULES = _all_modules()


@pytest.mark.parametrize("module_name", MODULES)
def test_module_imports_and_has_docstring(module_name):
    mod = importlib.import_module(module_name)
    assert mod.__doc__ and mod.__doc__.strip(), f"{module_name} lacks a docstring"


@pytest.mark.parametrize("module_name", MODULES)
def test_dunder_all_is_clean(module_name):
    mod = importlib.import_module(module_name)
    exported = getattr(mod, "__all__", None)
    if exported is None:
        return
    assert len(exported) == len(set(exported)), f"duplicates in {module_name}.__all__"
    for name in exported:
        assert hasattr(mod, name), f"{module_name}.__all__ lists missing {name!r}"


@pytest.mark.parametrize("module_name", MODULES)
def test_public_callables_documented(module_name):
    mod = importlib.import_module(module_name)
    for name in getattr(mod, "__all__", []):
        obj = getattr(mod, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            # only enforce for objects defined inside this project
            if (getattr(obj, "__module__", "") or "").startswith("repro"):
                assert obj.__doc__ and obj.__doc__.strip(), (
                    f"{module_name}.{name} lacks a docstring"
                )


def test_version_is_exposed():
    assert isinstance(repro.__version__, str) and repro.__version__


BACKEND_NAMES = {"reference", "fast", "sharded"}
BACKEND_MODULE = Path("core") / "backend.py"


def _backend_literals(node: ast.AST) -> list[str]:
    """Backend-name string constants in ``node`` (or its tuple/list/set items)."""
    items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return [
        item.value for item in items
        if isinstance(item, ast.Constant) and item.value in BACKEND_NAMES
    ]


def test_backend_names_compared_only_in_backend_module():
    """``repro.core.backend`` alone knows what the backend names mean.

    Everything else looks the :class:`~repro.core.backend.Backend` up
    with ``get_backend`` and calls its stages; a comparison against
    ``"reference"`` / ``"fast"`` / ``"sharded"`` elsewhere is a
    hand-rolled dispatch that drifts from the switch.
    """
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        if path.relative_to(root) == BACKEND_MODULE:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Compare):
                continue
            for operand in (node.left, *node.comparators):
                for literal in _backend_literals(operand):
                    offenders.append(f"{path.relative_to(root)}:{node.lineno}: {literal!r}")
    assert not offenders, "backend-name dispatch outside core/backend.py:\n" + "\n".join(
        offenders
    )
