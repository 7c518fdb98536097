"""``src/qgmem`` holds only code that the program or the benchmark runs.

Every function, class and public method defined there must be named
somewhere else in the package, be a benchmark hook (a ``LAYERS`` target of
``benchmark/tracing.py`` or a ``from qgmem... import`` in ``benchmark/``), or
be on ``ALLOWED`` with its reason.  The package's ``__init__`` does not
count as a use: re-exporting a name runs nothing.  References that only the
tests compare against live in ``tests/reference.py``.
"""

import ast
from pathlib import Path

from test_benchmark_targets import _layers, _qgmem_imports

import qgmem

SRC = Path(__file__).resolve().parents[1] / "src" / "qgmem"

ALLOWED = {
    "verify_completeness": "checks sum K^dag K = I of the operator-sum route's "
                           "Kraus sets, which the oracle's crossings are held to",
}


def _definitions():
    """(module, name) of every function, class and public method."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path.stem, node.name
            if isinstance(node, ast.ClassDef):
                yield from ((path.stem, f"{node.name}.{item.name}") for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_"))


def _names_used():
    """Every name and attribute read in the package, ``__init__`` aside."""
    used = set()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    return used


def _benchmark_hooks():
    targets = {t.partition(":")[2] for targets, _ in _layers().values() for t in targets}
    return ({part for t in targets for part in t.split(".")}
            | {name for _, _, name in _qgmem_imports()})


def test_every_definition_is_used_by_the_program_or_the_benchmark():
    kept = _names_used() | _benchmark_hooks() | set(ALLOWED)
    unused = [f"{module}.{name}" for module, name in _definitions()
              if name.rpartition(".")[2] not in kept]
    assert not unused, unused


def test_every_exported_name_resolves():
    # ``from qgmem import *`` fails on a name in ``__all__`` that the package
    # no longer defines.
    missing = [name for name in qgmem.__all__ if not hasattr(qgmem, name)]
    assert not missing, missing
