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

``weights.sha256`` pins the bits of every ``PairingWeights`` field, one
digest per pairing, so a rewrite of the weight builders keeps each float.
Its channel values are 0, 0.35 and 1 only, so ``weights_random.sha256``
pins the same fields at seeded random points and at the p = 3/4 and p = 1
corners, where a depolarizing factor is a signed zero or rounds apart from
its slot-1 twin.
``nash_stdout.sha256`` pins the whole report of ``nash --case all`` (every
claim line with its printed margins) at the default grid and at 5x7x3.
``verify_stdout.sha256`` pins, per pairing, the stdout and exit codes of
``verify`` over seeds, sample counts and ``--mu-zero``: a draw routed to the
wrong parameter passes both routes alike but moves the printed residual.
``nash_mixed_5x7x3.sha256`` pins certificates over mixed-kind pairings,
which no case certifies: for ad-ad, d-d and ph-ph the two channel roles are
interchangeable, so only a mixed pairing shows a certificate that swaps them.
"""

import hashlib
import itertools
import math
import random
from pathlib import Path

import numpy as np
import pytest

from qgmem.cli import GAIN_HEADER, main, table_rows, write_csv
from qgmem.closedform import Pairing, PairingWeights, batch_weights
from qgmem.equilibrium import FIGURES, CaseReport, StrategySpace, _nash
from qgmem.games import GAME_NAMES, builtin_game
from qgmem.protocol import EntanglementParams, StrategyParams

GOLDEN = Path(__file__).parent / "golden"


def digests(name):
    return dict(reversed(line.split())
                for line in (GOLDEN / name).read_text().splitlines())


FIGURE_DIGESTS = digests("figures.sha256")
NASH_DIGESTS = digests("nash_7x9x9.sha256")
NASH_3AXIS_DIGESTS = digests("nash_5x7x3.sha256")
WEIGHT_DIGESTS = digests("weights.sha256")
RANDOM_WEIGHT_DIGESTS = digests("weights_random.sha256")
STDOUT_DIGESTS = digests("nash_stdout.sha256")
VERIFY_DIGESTS = digests("verify_stdout.sha256")
MIXED_DIGESTS = digests("nash_mixed_5x7x3.sha256")


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


# Some claim of every certified case fails, so ``all`` exits 4.
@pytest.mark.parametrize("grid", ["13x17x17", "5x7x3"])
def test_nash_report_digest(capsys, grid):
    argv = ["nash", "--case", "all"]
    assert main(argv if grid == "13x17x17" else argv + ["--grid", grid]) == 4
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == STDOUT_DIGESTS[f"nash_all_{grid}.txt"]


# Two kinds in each pairing: ph and d before ad, ad before d, and two unital
# kinds.
MIXED_PAIRINGS = (Pairing.PH_AD, Pairing.D_AD, Pairing.AD_D, Pairing.D_PH)


def mixed_gains(path, fid):
    """Write the gain CSV of one ``_nash`` claim over the mixed pairings, at
    figure ``fid``'s entanglement and Bob's strategy, against Alice's figure
    strategy and theta1 = pi/2, for every game, on a 5x7x3 grid."""
    fig = FIGURES[fid]
    report = CaseReport(f"mixed-{fid}", StrategySpace(5, 7, 3))
    _nash(report, "nash", fig.ent,
          [(pairing, builtin_game(game), s1, fig.s2) for pairing in MIXED_PAIRINGS
           for game in GAME_NAMES for s1 in (fig.s1, StrategyParams(math.pi / 2))])
    write_csv(str(path), [row for claim in report.claims for row in table_rows(claim.gains)],
              GAIN_HEADER)


# Figure 6 sits at gamma = delta = pi/2, figure 5 at gamma = 0, delta = pi/2.
@pytest.mark.parametrize("fid", [6, 5])
def test_mixed_kind_gain_digest(tmp_path, fid):
    name = f"nash_mixed_fig{fid}_5x7x3.csv"
    mixed_gains(tmp_path / name, fid)
    digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digest == MIXED_DIGESTS[name]


def verify_digest(pairing: Pairing, capsys) -> str:
    """SHA-256 over the exit code and stdout of each ``verify`` run for seeds
    1 and 2, ``--samples`` 1 and 1037 (three blocks, the last partial), and
    ``--mu-zero`` off and on."""
    digest = hashlib.sha256()
    for seed, samples, mu_zero in itertools.product((1, 2), (1, 1037), (False, True)):
        code = main(["verify", "--pairing", pairing.value, "--seed", str(seed),
                     "--samples", str(samples), *["--mu-zero"] * mu_zero])
        digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("pairing", list(Pairing))
def test_verify_report_digest(capsys, pairing):
    assert verify_digest(pairing, capsys) == VERIFY_DIGESTS[pairing.value]


@pytest.mark.parametrize("fid", range(2, 8))
def test_figure_digest(tmp_path, capsys, fid):
    assert main(["figure", "--id", str(fid), "--outdir", str(tmp_path)]) == 0
    name = f"figure{fid}.csv"
    digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digest == FIGURE_DIGESTS[name]


# p and mu at both ends and inside, gamma and delta at 0, pi/2 and inside;
# crossing them gives the mixed (0, pi/2) and (pi/2, 0) angle pairs too.
# The float points are the corners, and the channel axes at inner angles.
CHANNEL_AXIS = (0.0, 0.35, 1.0)
ANGLE_AXIS = (0.0, 0.6, math.pi / 2)
FLOAT_POINTS = (*itertools.product(*[(0.0, 1.0)] * 4, *[(0.0, math.pi / 2)] * 2),
                *itertools.product(*[CHANNEL_AXIS] * 4, (0.6,), (0.6,)))


def weight_bytes(w: PairingWeights, shape=()):
    """The 11 fields of ``w`` (sectors entry by entry) as float64 bytes,
    each broadcast to ``shape``."""
    for name in w._fields:
        value = getattr(w, name)
        for v in value if isinstance(value, tuple) else (value,):
            yield np.ascontiguousarray(np.broadcast_to(v, shape), dtype=float).tobytes()


def weights_digest(pairing: Pairing) -> str:
    """SHA-256 over one array call on the crossed axes, then one call per
    float point."""
    digest, axes = hashlib.sha256(), (CHANNEL_AXIS,) * 4 + (ANGLE_AXIS,) * 2
    grid = np.meshgrid(*map(np.array, axes), indexing="ij", sparse=True)
    p1, mu1, p2, mu2, gamma, delta = grid
    w = batch_weights(EntanglementParams(gamma, delta),
                      *pairing.crossings((p1, mu1), (p2, mu2)))
    for chunk in weight_bytes(w, tuple(map(len, axes))):
        digest.update(chunk)
    for p1, mu1, p2, mu2, gamma, delta in FLOAT_POINTS:
        w = batch_weights(EntanglementParams(gamma, delta),
                          *pairing.crossings((p1, mu1), (p2, mu2)))
        for chunk in weight_bytes(w):
            digest.update(chunk)
    return digest.hexdigest()


def test_weight_fields_in_digest_order():
    # Both weight digests read the fields in ``_fields`` order; a reordered
    # record would move every digest without moving a weight.
    assert PairingWeights._fields == ("cc", "ss", "sc", "cs", "f_diag", "f_off",
                                      "g00", "g11", "g_off", "h_diag", "h_off")


@pytest.mark.parametrize("pairing", list(Pairing))
def test_weights_digest(pairing):
    assert weights_digest(pairing) == WEIGHT_DIGESTS[pairing.value]


# (p1, mu1, p2, mu2, gamma, delta): seeded random points, p and mu in [0, 1)
# and the angles in [0, pi/2), then each crossing at p in {3/4, 1} and mu in
# {0, 1}, crossed with gamma and delta in {0, pi/2}.
_DRAW = random.Random(1)
RANDOM_POINTS = np.concatenate([
    np.reshape([_DRAW.random() for _ in range(64 * 6)], (64, 6))
    * [1, 1, 1, 1, math.pi / 2, math.pi / 2],
    list(itertools.product(*[(0.75, 1.0), (0.0, 1.0)] * 2, *[(0.0, math.pi / 2)] * 2))])


def random_weights_digest(pairing: Pairing) -> str:
    """SHA-256 over one array call on every point of ``RANDOM_POINTS``, then
    one call per point at float values."""
    digest = hashlib.sha256()
    for point in (RANDOM_POINTS.T, *RANDOM_POINTS.tolist()):
        p1, mu1, p2, mu2, gamma, delta = point
        w = batch_weights(EntanglementParams(gamma, delta),
                          *pairing.crossings((p1, mu1), (p2, mu2)))
        for chunk in weight_bytes(w, np.shape(p1)):
            digest.update(chunk)
    return digest.hexdigest()


@pytest.mark.parametrize("pairing", list(Pairing))
def test_random_weights_digest(pairing):
    assert random_weights_digest(pairing) == RANDOM_WEIGHT_DIGESTS[pairing.value]
