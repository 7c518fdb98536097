"""Smoke tests of the scripts under ``scripts/``: each runs as ``__main__``
with its output path on the command line, so a renamed ``qgmem`` name that
a script imports fails here instead of silently."""

import hashlib
import runpy
import sys
from pathlib import Path

from test_golden import FIGURE_DIGESTS

from qgmem.cli import GAIN_HEADER

SCRIPTS = Path(__file__).parent.parent / "scripts"


def run_script(monkeypatch, name, *args):
    monkeypatch.setattr(sys, "argv", [str(SCRIPTS / name), *map(str, args)])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_make_figures_writes_golden_csvs(tmp_path, monkeypatch, capsys):
    run_script(monkeypatch, "make_figures.py", tmp_path)
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert written == FIGURE_DIGESTS


def test_run_case_studies_writes_gain_table(tmp_path, monkeypatch, capsys):
    out = tmp_path / "gains.csv"
    run_script(monkeypatch, "run_case_studies.py", out)
    header, *rows = out.read_text().splitlines()
    assert header == GAIN_HEADER
    assert len(rows) == 450
    assert capsys.readouterr().out.endswith(f"wrote 450 gain rows to {out}\n")
