"""``src/qgmem`` holds only code that the program or the benchmark runs.

Every function, class and public method defined there must be named
somewhere else in the package, or be a benchmark hook (a ``LAYERS`` target
of ``benchmark/tracing.py`` or a ``from qgmem... import`` in
``benchmark/``).  The package's ``__init__`` does not count as a use, and
it re-exports nothing.  References that only the tests compare against live
in ``tests/reference.py``.  Every qualified name that README.md cites
resolves.
"""

import ast
import importlib
import re
from pathlib import Path
from types import ModuleType

from test_benchmark_targets import _layers, _qgmem_imports

import qgmem

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qgmem"


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
    kept = _names_used() | _benchmark_hooks()
    unused = [f"{module}.{name}" for module, name in _definitions()
              if name.rpartition(".")[2] not in kept]
    assert not unused, unused


def test_package_root_reexports_nothing():
    # Every name is imported from the module that defines it, so the package
    # root holds only its submodules (importing one binds its name there).
    for path in SRC.glob("*.py"):
        if path.stem != "__init__":
            importlib.import_module(f"qgmem.{path.stem}")
    reexported = [name for name, value in vars(qgmem).items()
                  if not name.startswith("_") and not isinstance(value, ModuleType)]
    assert not reexported, reexported


def _readme_citations():
    """Every ``module.name`` (optionally ``qgmem.``-prefixed) that README.md
    cites in backticks, for the package's modules."""
    modules = "|".join(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")
    pattern = rf"`(?:qgmem\.)?({modules})\.([A-Za-z_][\w.]*)`"
    return sorted(set(re.findall(pattern, (ROOT / "README.md").read_text())))


def test_readme_citations_resolve():
    cited = _readme_citations()
    assert len(cited) >= 8, cited
    missing = []
    for module, attr in cited:
        owner = importlib.import_module(f"qgmem.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module}.{attr}")
    assert not missing, missing
