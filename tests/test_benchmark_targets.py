"""The benchmark's hooks into the package still resolve.

``benchmark/tracing.py`` wraps the functions named in its ``LAYERS`` table,
and the benchmark's modules import names from ``qgmem``; a refactor that
renames or removes one of them crashes the traced run and the benchmark's
self-test.  The benchmark files are only parsed here, never imported.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import rebind

BENCH = Path(__file__).resolve().parents[1] / "benchmark"


def _layers() -> dict:
    tree = ast.parse((BENCH / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("benchmark/tracing.py has no LAYERS table")


def _qgmem_imports():
    """(file, module, name) of every ``from qgmem... import name`` in benchmark/."""
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qgmem"):
                yield from ((path.name, node.module, a.name) for a in node.names)


@pytest.mark.parametrize("target", sorted({t for targets, _ in _layers().values()
                                           for t in targets}))
def test_tracer_target_resolves(target):
    # "module:function" or "module:Class.method"; methods are read from the
    # class __dict__, as the tracer rebinds them.
    modname, _, attr = target.partition(":")
    owner = importlib.import_module(modname)
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    assert callable(owner.__dict__[name] if classes else getattr(owner, name)), target


@pytest.mark.parametrize("where,module,name", list(_qgmem_imports()))
def test_benchmark_import_resolves(where, module, name):
    owner = importlib.import_module(module)
    assert hasattr(owner, name) or importlib.import_module(f"{module}.{name}"), where


@pytest.mark.parametrize("case_id", ["i", "ii-b", "iii-a", "iv"])
def test_nash_certificates_see_a_shifted_payoff_surface(case_id, tmp_path, monkeypatch,
                                                        capsys):
    # The benchmark's self-test rebinds closedform.payoff_surface in every
    # qgmem module to a copy off by 1e-6 and expects the nash outputs of the
    # cases with certificates (these four) to change.  A certificate path
    # that went around the function would hide the shift.
    from qgmem import closedform
    from qgmem.cli import main

    def table(name):
        assert main(["nash", "--case", case_id, "--grid", "3x3x3",
                     "--csv", str(tmp_path / name)]) == 4
        return (tmp_path / name).read_bytes()

    before, orig = table("before.csv"), closedform.payoff_surface
    rebind(monkeypatch, orig, lambda *args, **kwargs: orig(*args, **kwargs) + 1e-6)
    assert closedform.payoff_surface is not orig
    assert table("after.csv") != before


# A fresh process imports the CLI, then rebinds two names of the modules that
# ``verify`` and ``nash`` import when they run, as the tracer and the self-test
# do (``conftest.rebind``, importing each module first), and runs both commands.
REBIND_AFTER_IMPORT = """
import importlib, sys, types
from qgmem import cli
sys.path.insert(0, sys.argv[1])
from conftest import rebind
calls = []
for target in ("qgmem.equilibrium:case_study", "qgmem.oracle:two_pass_state"):
    modname, _, name = target.partition(":")
    orig = getattr(importlib.import_module(modname), name)
    def counted(*args, orig=orig, target=target, **kwargs):
        calls.append(target)
        return orig(*args, **kwargs)
    rebind(types.SimpleNamespace(setattr=setattr), orig, counted)
assert cli.main(["nash", "--case", "ii-b", "--grid", "3x3x3"]) == 4
assert cli.main(["verify", "--pairing", "ad-ad", "--samples", "3"]) == 0
print(*dict.fromkeys(calls))
"""


def test_lazily_imported_names_are_read_at_call_time():
    # ``cli`` imports ``equilibrium`` and ``oracle`` inside the commands; a name
    # bound there at import would keep the original and hide the rebinding.
    tests = Path(__file__).resolve().parent
    src = Path(importlib.import_module("qgmem").__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", REBIND_AFTER_IMPORT, str(tests)],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.stdout.splitlines()[-1] == \
        "qgmem.equilibrium:case_study qgmem.oracle:two_pass_state"


# Traced targets that no CLI command reaches, with the reason each one is not.
UNREACHED = {
    "qgmem.closedform:pairing_weights": "its tracer key cannot hash array arguments",
    "qgmem.channels:two_use_kraus": "the operator-sum reference the tests compare against",
    "qgmem.channels:apply_channel": "the operator-sum reference the tests compare against",
}


def test_cli_reaches_every_other_target(tmp_path, monkeypatch, capsys):
    # A layer whose target the program stopped calling reads 0 in every
    # traced run.  Each target is rebound in every qgmem module that holds
    # it, as the tracer does, so a call through any module's name counts.
    from qgmem import cli

    calls = {}

    def counted(target, fn):
        def wrapper(*args, **kwargs):
            calls[target] += 1
            return fn(*args, **kwargs)
        return wrapper

    for target in sorted({t for targets, _ in _layers().values() for t in targets}):
        calls[target] = 0
        modname, _, attr = target.partition(":")
        module = importlib.import_module(modname)
        if "." in attr:  # a method: rebind it on its class
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            monkeypatch.setattr(cls, meth, counted(target, cls.__dict__[meth]))
            continue
        orig = getattr(module, attr)
        rebind(monkeypatch, orig, counted(target, orig))

    config = tmp_path / "sweep.conf"
    config.write_text(f"game = pd\npairing = ad-d\nsweep.p1 = 0:1:3\n"
                      f"sweep.mu1 = 0:1:3\noutput = {tmp_path / 'sweep.csv'}\n")
    for argv, code in ((["sweep", "--config", str(config)], 0),
                       (["figure", "--id", "2", "--outdir", str(tmp_path)], 0),
                       (["verify", "--pairing", "ph-d", "--samples", "3"], 0),
                       (["verify", "--pairing", "ad-ad", "--samples", "3"], 0),
                       (["nash", "--case", "iv", "--grid", "3x3x3"], 4)):
        assert cli.main(argv) == code, argv
    capsys.readouterr()
    assert {t for t, n in calls.items() if n == 0} == set(UNREACHED)
