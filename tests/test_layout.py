"""``src/qgmem`` holds only code that the program or the benchmark runs.

Every function, class and public method defined there must be named
somewhere else in the package, or be a benchmark hook (a ``LAYERS`` target
of ``benchmark/tracing.py`` or a ``from qgmem... import`` in
``benchmark/``), and every module-level function must be read by the
package itself, save the tracer-kept names of
``test_benchmark_targets.UNREACHED``.  The package's ``__init__`` does not
count as a use, and it re-exports nothing.  References that only the tests
compare against live in ``tests/reference.py``.  Every qualified name that README.md cites
resolves.  Parameter ranges are checked only where the parameter types are
built, and channel crossings are built in one place.  A deviation grid's
scan is known to ``closedform`` alone, and its assembly steps take weights:
only the weight step and the closed-form entry points take crossings.  Only
``closedform.closed_payoff`` and the certificates compose the weights with
``payoff_surface``; in ``equilibrium`` the phase-independence claim and
``mu_curves`` call ``closed_payoff``, and every curve claim and
``cli.figure_rows`` read ``mu_curves``.  Only ``cli.fmt`` and ``cli.make_row``
read the number format ``NUMBER``, so every CSV the CLI writes takes its
numbers from one place.  No module in ``src/`` or ``tests/`` imports a name that it
never reads.  Every site of the mutation catalogue (``tests/mutate.py``)
occurs once in ``src/`` and still parses when mutated, and every known
survivor that ``tests/golden/mutants.txt`` lists is in the catalogue.
"""

import ast
import importlib
import re
from pathlib import Path
from types import ModuleType

from mutate import MUTANTS, known_survivors
from test_benchmark_targets import UNREACHED, _layers, _qgmem_imports

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
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
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


def test_every_module_function_is_read_by_the_package():
    # A benchmark hook keeps a function only while the tracer needs it; the
    # program itself must read every other module-level function, so a
    # helper whose last caller went away cannot linger.
    read = _names_used()
    unread = {f"qgmem.{path.stem}:{node.name}" for path in SRC.glob("*.py")
              if path.name != "__init__.py"
              for node in ast.parse(path.read_text()).body
              if isinstance(node, ast.FunctionDef) and node.name not in read}
    assert unread == set(UNREACHED)


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


CHECKED = ["qmat.RangeChecked.__new__"]


def _scopes(found):
    """``module.scope`` of every node of the package for which ``found`` holds."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from visit(child, scope + [child.name])
                continue
            if found(child):
                yield ".".join(scope)
            yield from visit(child, scope)

    return {caller for path in SRC.glob("*.py")
            for caller in visit(ast.parse(path.read_text()), [path.stem])}


def _callers(name):
    """``module.scope`` of every call of ``name`` in the package."""
    return _scopes(lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def test_ranges_are_checked_only_by_the_parameter_types():
    callers = _callers("check_range")
    stray = sorted(callers - set(CHECKED))
    assert not stray, f"check_range called outside the parameter types: {stray}"
    assert sorted(callers) == CHECKED


def test_crossings_are_built_only_by_the_pairing():
    # The closed form, the certificates and the oracle take the caller's
    # specs, so each crossing is range-checked once and both routes see the
    # same objects.
    builders = _callers("ChannelSpec")
    stray = sorted(builders - {"closedform.Pairing.crossings"})
    assert not stray, f"ChannelSpec built outside Pairing.crossings: {stray}"
    assert builders == {"closedform.Pairing.crossings"}


# The coefficient layout, liveness rule and buffers of a deviation scan.
SCAN_INTERNALS = {"angle_terms", "payoff_coeffs", "sum_products"}


def test_equilibrium_leaves_the_scan_to_closedform():
    imported = {alias.name
                for node in ast.walk(ast.parse((SRC / "equilibrium.py").read_text()))
                if isinstance(node, ast.ImportFrom) and node.level == 1
                and node.module == "closedform" for alias in node.names}
    leaked = sorted(imported & SCAN_INTERNALS)
    assert not leaked, f"equilibrium imports closedform's scan internals: {leaked}"
    assert "grid_maxima" in imported, imported


# The assembly steps, which take one weight evaluation's weights, and the
# only module-level functions of ``closedform`` that take a crossing.
WEIGHT_TAKERS = ("payoff_surface", "grid_maxima", "payoff_coeffs")
CROSSING_TAKERS = {"batch_weights", "pairing_weights", "closed_payoff", "closed_payoff_pair"}


def test_closedform_assembly_takes_weights_not_crossings():
    # One weight evaluation serves a certificate stack's payoffs and both
    # deviation scans only while no assembly step builds weights itself.
    params = {node.name: [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]
              for node in ast.parse((SRC / "closedform.py").read_text()).body
              if isinstance(node, ast.FunctionDef)}
    for name in WEIGHT_TAKERS:
        assert [a.arg for a in params[name][:3]] == ["weights", "entries", "ent"], name
    takers = {name for name, args in params.items()
              if any(a.arg in ("ch1", "ch2") or getattr(a.annotation, "id", None)
                     == "ChannelSpec" for a in args)}
    assert takers == CROSSING_TAKERS


# The only places that write the closed form's two steps (a weight evaluation,
# then ``payoff_surface`` on it): its entry point, and the certificates, whose
# one weight evaluation also feeds both deviation scans.  Inside
# ``equilibrium``, the other payoff evaluators, which call the entry point,
# and the claim kinds that read their payoffs as one (player, pairing, game,
# p, mu) array; ``cli.figure_rows`` reads the same array, since the figures
# are the curves that those claims decide on.
COMPOSERS = {"closedform.closed_payoff", "equilibrium.check_profile"}
ENTRY_CALLERS = {"equilibrium.mu_curves", "equilibrium._phase_independence"}
CURVE_CLAIMS = {f"equilibrium.{name}" for name in (
    "_nondecreasing", "_mu_ordering", "_advantage", "_equal_payoffs",
    "_noiseless_distance", "_max_noise_advantage")}


def test_claims_read_payoffs_through_mu_curves():
    # A second hand-written composition could drift from ``closed_payoff``,
    # and a claim kind that evaluated its own payoffs would bypass the one
    # array per claim that the margins are read from.  ``cli`` calls neither
    # step; ``pairing_weights`` is kept by the tracer alone.
    assert _callers("payoff_surface") == COMPOSERS
    assert _callers("batch_weights") == COMPOSERS | {"closedform.pairing_weights"}
    assert {c for c in _callers("closed_payoff")
            if c.startswith("equilibrium.")} == ENTRY_CALLERS
    assert _callers("mu_curves") == CURVE_CLAIMS | {"cli.figure_rows"}


def test_only_fmt_and_make_row_read_the_number_format():
    # ``cli.table_rows`` leaves every number slot to ``make_row``'s template
    # and every formatted value to ``fmt``, so no table can write a number in
    # a second format.
    readers = _scopes(lambda node: isinstance(node, ast.Name) and node.id == "NUMBER"
                      and isinstance(node.ctx, ast.Load))
    assert readers == {"cli.fmt", "cli.make_row"}


def test_every_mutant_site_occurs_once():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    for m in MUTANTS:
        counts = {stem: text.count(m.pattern) for stem, text in sources.items()}
        assert {stem: n for stem, n in counts.items() if n} == {m.module: 1}, m.name
        ast.parse(sources[m.module].replace(m.pattern, m.replacement))
        assert all((ROOT / "tests" / name).is_file() for name in m.tests), m.name


def test_known_survivors_are_catalogued():
    # Each line of ``tests/golden/mutants.txt`` names a mutant, then the
    # reason it survives (a line without one does not parse).
    assert set(known_survivors()) <= {m.name for m in MUTANTS}


def _unread_imports(path):
    """The names that the module at ``path`` imports and never reads."""
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name.partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return sorted(imported - read)


def test_no_module_imports_a_name_it_never_reads():
    # The standard library's stand-in for a linter's unused-import rule.
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unread = [f"{path.relative_to(ROOT)}: {name}"
              for path in paths for name in _unread_imports(path)]
    assert not unread, unread
