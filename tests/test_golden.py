"""Byte-for-byte pins of CLI outputs.

The files under ``tests/golden/`` were written by the per-point
implementation of ``sweep``, ``figure`` and ``nash``.  Any refactor of those
paths must reproduce them exactly: same rows, same order, same 12-digit
values.  The figure CSVs, the 7x9x9 gain tables of the cases ``i``,
``iii-a`` and ``iv`` and the 5x7x3 gain tables of ``i``, ``ii-b``, ``iii-a``
and ``iv`` are pinned by SHA-256 digest (``sha256sum`` format), the others
in full.  The 5x7x3 grid gives theta, alpha and beta different sizes, so a
deviation scan that swaps two axes cannot reproduce it.  (Case ``iii-a``'s
gains do not depend on the grid; its 5x7x3 table equals its 7x9x9 one.)
"""

import hashlib
from pathlib import Path

import pytest

from qgmem.cli import main

GOLDEN = Path(__file__).parent / "golden"


def digests(name):
    return dict(reversed(line.split())
                for line in (GOLDEN / name).read_text().splitlines())


FIGURE_DIGESTS = digests("figures.sha256")
NASH_DIGESTS = digests("nash_7x9x9.sha256")
NASH_3AXIS_DIGESTS = digests("nash_5x7x3.sha256")


def test_three_axis_sweep_bytes(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    conf = tmp_path / "sweep.conf"
    conf.write_text((GOLDEN / "sweep_p1_mu2_theta2.conf").read_text()
                    + f"output = {out}\n")
    assert main(["sweep", "--config", str(conf)]) == 0
    assert out.read_bytes() == (GOLDEN / "sweep_p1_mu2_theta2.csv").read_bytes()


def test_nash_gain_table_bytes(tmp_path, capsys):
    out = tmp_path / "gains.csv"
    # ii-b's nominal profile is refuted, so the command exits 4.
    assert main(["nash", "--case", "ii-b", "--grid", "5x5x5",
                 "--csv", str(out)]) == 4
    assert out.read_bytes() == (GOLDEN / "nash_ii-b_5x5x5.csv").read_bytes()


# Every case with certificates refutes its nominal profile somewhere on the
# (p, mu) grid, so each exits 4.
@pytest.mark.parametrize("case", ["i", "iii-a", "iv"])
def test_nash_gain_digest(tmp_path, capsys, case):
    name = f"nash_{case}_7x9x9.csv"
    assert main(["nash", "--case", case, "--grid", "7x9x9",
                 "--csv", str(tmp_path / name)]) == 4
    digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digest == NASH_DIGESTS[name]


@pytest.mark.parametrize("case", ["i", "ii-b", "iii-a", "iv"])
def test_nash_gain_digest_three_axis_sizes(tmp_path, capsys, case):
    name = f"nash_{case}_5x7x3.csv"
    assert main(["nash", "--case", case, "--grid", "5x7x3",
                 "--csv", str(tmp_path / name)]) == 4
    digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digest == NASH_3AXIS_DIGESTS[name]


@pytest.mark.parametrize("fid", range(2, 8))
def test_figure_digest(tmp_path, capsys, fid):
    assert main(["figure", "--id", str(fid), "--outdir", str(tmp_path)]) == 0
    name = f"figure{fid}.csv"
    digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digest == FIGURE_DIGESTS[name]
