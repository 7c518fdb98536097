"""The benchmark's three workloads.

Each workload is a list of operations.  An operation is one call of
``qgmem.cli.main`` with generated arguments, together with the check of
what that call produced.  ``build`` makes the operations of one pass from
the benchmark seed; the program receives only the generated arguments and
config files.

Checks never trust the program's own verdict alone:

* ``sweep``: every figure CSV matches its SHA-256 digest recorded in
  ``golden.json``; every sweep CSV has the right header and row count, a
  seeded sample of its rows is recomputed with the Kraus oracle
  (``oracle.two_pass_state``) and must agree within ``TOL``, and at the
  default seed the whole file matches its recorded digest.
* ``verify``: exit code 0, and the printed ``samples=`` and
  ``max_abs_diff=`` equal the requested count and stay within ``TOL``.
* ``nash``: the exit code and the gain CSV digest match those recorded.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from qgmem import cli
from qgmem.channels import ChannelSpec
from qgmem.closedform import Pairing
from qgmem.games import builtin_game
from qgmem.oracle import two_pass_state
from qgmem.protocol import (EntanglementParams, StrategyParams, measure_payoff,
                            payoff_operator)

WORKLOADS = ("sweep", "verify", "nash")
DEFAULT_SEED = 1
TOL = 1e-9

# Sizes of one pass.  FULL is what the benchmark measures; TINY is for the
# self-test.  ``steps`` is the points per sweep axis, ``samples`` the oracle
# samples per pairing, ``grid`` the quantum strategy grid of each case.
FULL = {"steps": 51, "samples": 400, "grid": "25x33x33"}
TINY = {"steps": 3, "samples": 2, "grid": "3x3x3"}

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())

PI = math.pi
AXIS_RANGE = {"p1": ("0", "1"), "mu1": ("0", "1"), "p2": ("0", "1"),
              "mu2": ("0", "1"), "theta2": ("0", "pi"),
              "alpha2": ("-pi", "pi"), "beta2": ("-pi", "pi")}
# One sweep per pairing: four over channel axes (the pairing weights change
# on every row) and five over strategy axes (the weights never change).
# Axes are listed outer first, in the CLI's canonical axis order.
SWEEPS = (
    ("pd", "ad-ad", ("mu1", "p2")),
    ("bos", "d-d", ("p1", "mu2")),
    ("chicken", "ph-ad", ("p1", "mu1")),
    ("pd", "ad-d", ("p2", "mu2")),
    ("bos", "ph-ph", ("theta2", "alpha2")),
    ("chicken", "d-ad", ("theta2", "beta2")),
    ("pd", "ad-ph", ("alpha2", "beta2")),
    ("bos", "d-ph", ("theta2", "alpha2")),
    ("chicken", "ph-d", ("theta2", "beta2")),
)
ORACLE_ROWS = 8  # sweep rows per CSV recomputed by the oracle in each check

CSV_HEADER = ("game,pairing,p1,mu1,p2,mu2,gamma,delta,"
              "theta1,alpha1,beta1,theta2,alpha2,beta2,payoff_a,payoff_b")
GAIN_HEADER = "case,pairing,game,p,mu,payoff_a,payoff_b,gain_a,gain_b"
# Rows of each figure: curve groups times 101 mu steps.
FIGURE_ROWS = {2: 606, 3: 404, 4: 303, 5: 303, 6: 303, 7: 303}
# Gain rows (certificates) of each case: profiles times the 5x5 (p, mu) grid.
NASH_ROWS = {"i": 375, "ii-a": 0, "ii-b": 25, "ii-c": 0, "ii-d": 0,
             "iii-a": 25, "iii-b": 0, "iii-c": 0, "iv": 25}


@dataclass
class Op:
    """One CLI invocation; ``check(code, stdout)`` returns a failure reason
    or None.  ``items`` is the work it is specified to do (rows, samples or
    certificates)."""

    argv: list[str]
    items: int
    check: Callable[[int, str], str | None]

    def run(self) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(self.argv)
        return code, out.getvalue()


def build(workload: str, seed: int, sizes: dict, tmp: Path) -> list[Op]:
    """Operations of one pass of ``workload``; files go under ``tmp``."""
    if workload == "sweep":
        return _figure_ops(tmp) + _sweep_ops(seed, sizes["steps"], tmp)
    if workload == "verify":
        return _verify_ops(seed, sizes["samples"])
    if workload == "nash":
        return _nash_ops(sizes["grid"], tmp)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --------------------------------------------------------------------------
# sweep: the six figure CSVs, then one 2-axis sweep per pairing
# --------------------------------------------------------------------------
def _figure_ops(tmp: Path) -> list[Op]:
    def check_for(fid):
        path = tmp / f"figure{fid}.csv"

        def check(code, out):
            if code != 0:
                return f"exit code {code}"
            if _sha256(path) != GOLDEN["figures"][str(fid)]:
                return f"{path.name} differs from its recorded digest"
            return None
        return check

    return [Op(["figure", "--id", str(fid), "--outdir", str(tmp)], rows,
               check_for(fid)) for fid, rows in FIGURE_ROWS.items()]


def _sweep_ops(seed: int, steps: int, tmp: Path) -> list[Op]:
    rng = random.Random(seed)
    golden = GOLDEN["sweep"].get(f"seed={seed},steps={steps}", {})
    ops = []
    for game_name, pairing_name, axes in SWEEPS:
        # Values of the axes that are not swept, drawn inside their domains.
        fixed = {"gamma": rng.uniform(0, PI / 2), "delta": rng.uniform(0, PI / 2),
                 "theta1": rng.uniform(0, PI), "alpha1": rng.uniform(-PI, PI),
                 "beta1": rng.uniform(-PI, PI), "theta2": rng.uniform(0, PI),
                 "alpha2": rng.uniform(-PI, PI), "beta2": rng.uniform(-PI, PI),
                 "p1": rng.random(), "mu1": rng.random(),
                 "p2": rng.random(), "mu2": rng.random()}
        sample = sorted(rng.sample(range(steps * steps),
                                   min(ORACLE_ROWS, steps * steps)))
        out = tmp / f"sweep-{pairing_name}.csv"
        lines = [f"game = {game_name}", f"pairing = {pairing_name}",
                 f"output = {out}"]
        lines += [f"{k} = {v!r}" for k, v in fixed.items() if k not in axes]
        lines += [f"sweep.{a} = {AXIS_RANGE[a][0]}:{AXIS_RANGE[a][1]}:{steps}"
                  for a in axes]
        config = tmp / f"sweep-{pairing_name}.cfg"
        config.write_text("\n".join(lines) + "\n")
        check = _sweep_check(game_name, pairing_name, axes, fixed, steps,
                             sample, out, golden.get(pairing_name))
        ops.append(Op(["sweep", "--config", str(config)], steps * steps, check))
    return ops


def _axis_value(axis: str, i: int, steps: int) -> float:
    """The i-th grid value of a swept axis, as the CLI documents it."""
    lo, hi = ({"pi": PI, "-pi": -PI}.get(t) or float(t) for t in AXIS_RANGE[axis])
    return lo + (hi - lo) * i / (steps - 1)


def _sweep_check(game_name, pairing_name, axes, fixed, steps, sample, out,
                 digest):
    game = builtin_game(game_name)
    pairing = Pairing.from_string(pairing_name)

    def check(code, stdout):
        if code != 0:
            return f"exit code {code}"
        lines = out.read_text().splitlines()
        if lines[0] != CSV_HEADER or len(lines) != steps * steps + 1:
            return f"{out.name}: bad header or {len(lines) - 1} rows"
        for r in sample:
            v = dict(fixed)
            v[axes[0]] = _axis_value(axes[0], r // steps, steps)
            v[axes[1]] = _axis_value(axes[1], r % steps, steps)
            ent = EntanglementParams(v["gamma"], v["delta"])
            rho = two_pass_state(
                ent, StrategyParams(v["theta1"], v["alpha1"], v["beta1"]),
                StrategyParams(v["theta2"], v["alpha2"], v["beta2"]),
                ChannelSpec(pairing.first, v["p1"], v["mu1"]),
                ChannelSpec(pairing.second, v["p2"], v["mu2"]))
            want = (measure_payoff(payoff_operator(ent.delta, game.a), rho),
                    measure_payoff(payoff_operator(ent.delta, game.b), rho))
            got = [float(x) for x in lines[r + 1].split(",")[-2:]]
            if max(abs(g - w) for g, w in zip(got, want)) > TOL:
                return f"{out.name} row {r}: {got} vs oracle {want}"
        if digest is not None and _sha256(out) != digest:
            return f"{out.name} differs from its recorded digest"
        return None
    return check


# --------------------------------------------------------------------------
# verify: closed form against the Kraus oracle, per pairing
# --------------------------------------------------------------------------
def _verify_ops(seed: int, samples: int) -> list[Op]:
    def check_for(pairing):
        def check(code, out):
            m = re.search(r"pairing=(\S+) samples=(\d+) .*max_abs_diff=(\S+)", out)
            if code != 0 or m is None:
                return f"exit code {code}, output {out.strip()!r}"
            if m[1] != pairing or int(m[2]) != samples or not float(m[3]) <= TOL:
                return f"bad verify report {out.strip()!r}"
            return None
        return check

    return [Op(["verify", "--pairing", p.value, "--samples", str(samples),
                "--seed", str(seed * 100 + i), "--tol", repr(TOL)],
               samples, check_for(p.value))
            for i, p in enumerate(Pairing)]


# --------------------------------------------------------------------------
# nash: every case study with its equilibrium certificates
# --------------------------------------------------------------------------
def _nash_ops(grid: str, tmp: Path) -> list[Op]:
    golden = GOLDEN["nash"][grid]

    def check_for(case, path):
        def check(code, out):
            want = golden[case]
            if code != want["exit"]:
                return f"case {case}: exit code {code}, recorded {want['exit']}"
            lines = path.read_text().splitlines()
            if lines[0] != GAIN_HEADER or len(lines) != NASH_ROWS[case] + 1:
                return f"case {case}: bad header or {len(lines) - 1} gain rows"
            if _sha256(path) != want["sha256"]:
                return f"case {case}: gain CSV differs from its recorded digest"
            return None
        return check

    ops = []
    for case, rows in NASH_ROWS.items():
        path = tmp / f"gains-{case}.csv"
        ops.append(Op(["nash", "--case", case, "--grid", grid, "--csv", str(path)],
                      rows, check_for(case, path)))
    return ops
