"""Command-line front end: single payoffs, oracle-vs-closed-form checks,
parameter sweeps, figure-data CSVs, and equilibrium case studies.

Exit codes: 0 success, 2 usage or range error, 3 unsupported configuration
(an input too large to allocate), 4 verification or certificate failure.
All output is deterministic: CSV files are byte-identical across runs for
the same inputs.
"""

from __future__ import annotations

import argparse
import functools
import math
import random
import sys
from dataclasses import dataclass, field

import numpy as np

from .channels import ChannelKind, ChannelSpec
from .closedform import Pairing, closed_payoff_pair, payoff_surface
from .equilibrium import (CASE_IDS, FIGURES, GAIN_COLUMNS, QUANTUM_SPACE, StrategySpace,
                          case_study)
from .games import GAME_NAMES, Bimatrix, builtin_game
from .oracle import two_pass_state
from .protocol import (EntanglementParams, StrategyParams, measure_payoff,
                       payoff_operator)

# The twelve parameters of a game point, in CSV column order.
POINT = ("p1", "mu1", "p2", "mu2", "gamma", "delta",
         "theta1", "alpha1", "beta1", "theta2", "alpha2", "beta2")
CSV_HEADER = ",".join(("game", "pairing", *POINT, "payoff_a", "payoff_b"))

GAIN_HEADER = ",".join(GAIN_COLUMNS)

USAGE_ERROR, UNSUPPORTED, VERIFY_FAIL = 2, 3, 4

ANGLES = POINT[4:]
ANGLE_FLAGS = {f"--{name}" for name in ANGLES}


def parse_angle(text: str) -> float:
    """Angles are radians; the literals pi, pi/2, -pi, pi/4 ... are accepted."""
    token = text.strip().lower().replace(" ", "")
    sign = 1.0
    if token.startswith(("-", "+")):
        sign = -1.0 if token[0] == "-" else 1.0
        token = token[1:]
    if token == "pi":
        return sign * math.pi
    if token.startswith("pi/") and float(token[3:]) != 0:  # pi/0 fails below
        return sign * math.pi / float(token[3:])
    return sign * float(token)


def fmt(value: float) -> str:
    """12-significant-digit decimal formatting used everywhere."""
    return f"{value:.12g}"


def make_row(game_name: str, pairing: Pairing, values) -> str:
    """A CSV row from the columns p1 .. payoff_b.  An array value (a column
    that varies per row) leaves a %.12g slot, which formats as ``fmt``."""
    return ",".join([game_name, pairing.value] + [
        "%.12g" if isinstance(v, np.ndarray) else fmt(v) for v in values])


def game_point(values):
    """(ent, s1, s2, ch1, ch2) from a mapping of the POINT names."""
    p1, mu1, p2, mu2, *angles = (values[name] for name in POINT)
    return (EntanglementParams(*angles[:2]), StrategyParams(*angles[2:5]),
            StrategyParams(*angles[5:]), (p1, mu1), (p2, mu2))


def payoff_rows(game: Bimatrix, pairing: Pairing, ent: EntanglementParams,
                s1: StrategyParams, s2: StrategyParams, ch1, ch2) -> list[str]:
    """CSV rows of one array evaluation.  Channel parameters and angles may be
    arrays; rows run over their broadcast shape, last axis fastest."""
    pa, pb = closed_payoff_pair(pairing, game, ent, s1, s2, ch1, ch2)
    values = (*ch1, *ch2, ent.gamma, ent.delta, *s1.angles, *s2.angles, pa, pb)
    shape = np.broadcast_shapes(*(np.shape(v) for v in values))
    columns = [np.broadcast_to(v, shape).ravel().tolist()
               for v in values if isinstance(v, np.ndarray)]
    template = make_row(game.name, pairing, values)
    return [template % cells for cells in zip(*columns)]


# --------------------------------------------------------------------------
# payoff
# --------------------------------------------------------------------------
def cmd_payoff(args) -> int:
    game = builtin_game(args.game)
    pairing = Pairing.from_string(args.pairing)
    pa, pb = closed_payoff_pair(pairing, game, *game_point(vars(args)))
    print(f"payoff_a={fmt(pa)} payoff_b={fmt(pb)}")
    return 0


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------
VERIFY_BLOCK = 512  # samples evaluated per array call
# Bounds of a verify tuple's 16 draws: entries, gamma, delta, angles, (mu, p) x 2.
_DRAW_LO, _DRAW_HI = np.array(
    [(-2.0, 5.0)] * 4 + [(0.0, math.pi / 2)] * 2
    + [(0.0, math.pi), (-math.pi, math.pi), (-math.pi, math.pi)] * 2 + [(0.0, 1.0)] * 4).T


def verify_blocks(pairing: Pairing, samples: int, seed: int, mu_zero: bool):
    """The ``verify`` tuples, VERIFY_BLOCK at a time, as (16, n) arrays with
    rows e00, e01, e10, e11 and then the game point in POINT order.
    Each draw is lo + (hi - lo) * random(), as in ``random.uniform``; the
    Mersenne Twister stream is stable across Python versions for a fixed
    integer seed.  ``mu_zero`` zeroes amplitude-damping memories once drawn."""
    rng = random.Random(seed)
    for start in range(0, samples, VERIFY_BLOCK):
        n = min(VERIFY_BLOCK, samples - start)
        # random() < 1 never hits the 2.0 sentinel; fromiter reads exactly 16n draws.
        u = np.fromiter(iter(rng.random, 2.0), float, 16 * n).reshape(n, 16)
        cols = (_DRAW_LO + (_DRAW_HI - _DRAW_LO) * u).T[
            [*range(4), 13, 12, 15, 14, *range(4, 12)]]
        for row, kind in ((5, pairing.first), (7, pairing.second)):
            if mu_zero and kind is ChannelKind.AMPLITUDE_DAMPING:
                cols[row] = 0.0
        yield cols


def cmd_verify(args) -> int:
    pairing = Pairing.from_string(args.pairing)
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError(f"--tol must be finite and >= 0, got {args.tol}")
    worst = 0.0
    for cols in verify_blocks(pairing, args.samples, args.seed, args.mu_zero):
        entries, (ent, s1, s2, ch1, ch2) = cols[:4], game_point(dict(zip(POINT, cols[4:])))
        closed = payoff_surface(pairing, entries, ent, ch1, ch2, *s1.angles, *s2.angles)
        rho = two_pass_state(ent, s1, s2, ChannelSpec(pairing.first, *ch1),
                             ChannelSpec(pairing.second, *ch2))
        simulated = measure_payoff(payoff_operator(ent.delta, entries), rho)
        # np.max keeps a NaN difference, which then fails the tolerance.
        worst = float(np.max(np.abs(closed - simulated), initial=worst))
    print(f"pairing={pairing.value} samples={args.samples} seed={args.seed} "
          f"max_abs_diff={worst:.3e} tol={args.tol:.3e}")
    return 0 if worst <= args.tol else VERIFY_FAIL


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------
SWEEPABLE = ("p1", "mu1", "p2", "mu2", "theta2", "alpha2", "beta2")
# Largest |entry| of a custom game: a payoff sums a few entries times weights
# of at most 1, so it stays far below the float range.
ENTRY_BOUND = 1e300


@dataclass
class SweepConfig:
    game: Bimatrix
    pairing: Pairing
    point: dict[str, float] = field(default_factory=lambda: dict.fromkeys(POINT, 0.0))
    output: str = "sweep.csv"
    axes: list[tuple[str, np.ndarray]] = field(default_factory=list)


def parse_sweep_config(text: str) -> SweepConfig:
    """Flat key=value lines with # comments; axes as ``sweep.mu1 = 0:1:11``."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value")
        key, _, val = (part.strip() for part in line.partition("="))
        if key in values:
            raise ValueError(f"config line {lineno}: repeated key {key!r}")
        values[key] = val

    def take(key: str) -> str:
        if key not in values:
            raise ValueError(f"missing required key {key!r}")
        return values.pop(key)

    name = take("game")
    if name == "custom":
        entries_a = [float(x) for x in take("entries_a").split(",")]
        entries_b = [float(x) for x in take("entries_b").split(",")]
        if len(entries_a) != 4 or len(entries_b) != 4:
            raise ValueError("custom game needs 4 entries per player")
        if not all(map(math.isfinite, entries_a + entries_b)):
            raise ValueError("custom game entries must be finite")
        if max(map(abs, entries_a + entries_b)) > ENTRY_BOUND:
            raise ValueError(f"custom game entries must be at most {ENTRY_BOUND:g} "
                             "in magnitude")
        game = Bimatrix("custom", tuple(entries_a), tuple(entries_b))
    else:
        game = builtin_game(name)
    cfg = SweepConfig(game=game, pairing=Pairing.from_string(take("pairing")))

    for key, val in values.items():
        if key.startswith("sweep."):
            axis = key[len("sweep."):]
            if axis not in SWEEPABLE:
                raise ValueError(f"cannot sweep {axis!r}; choose from {SWEEPABLE}")
            if axis in values:
                raise ValueError(f"{axis!r} is both fixed and swept ({key!r})")
            parts = val.split(":")
            if len(parts) != 3:
                raise ValueError(f"axis {axis}: expected start:stop:steps, got {val!r}")
            start, stop = parse_angle(parts[0]), parse_angle(parts[1])
            steps = int(parts[2])
            if steps < 2:
                raise ValueError(f"axis {axis}: steps must be >= 2")
            grid = start + (stop - start) * np.arange(steps) / (steps - 1)
            cfg.axes.append((axis, grid))
        elif key == "output":
            cfg.output = val
        elif key in POINT:
            cfg.point[key] = (parse_angle if key in ANGLES else float)(val)
        else:
            raise ValueError(f"unknown config key {key!r}")
    if not cfg.axes:
        raise ValueError("at least one sweep.<axis> line is required")
    cfg.axes.sort(key=lambda ax: SWEEPABLE.index(ax[0]))
    return cfg


def run_sweep(cfg: SweepConfig) -> list[str]:
    """Rows in lexicographic axis order (canonical axis order, last fastest)."""
    grids = np.meshgrid(*(np.array(grid) for _, grid in cfg.axes),
                        indexing="ij", sparse=True)
    point = {**cfg.point, **{name: g for (name, _), g in zip(cfg.axes, grids)}}
    return payoff_rows(cfg.game, cfg.pairing, *game_point(point))


def write_csv(path: str, rows: list[str], header: str = CSV_HEADER) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("\n".join([header, *rows]) + "\n")


def write_gains(path: str, gain_rows: list[dict]) -> None:
    """The ``nash --csv`` table: one row per certificate, GAIN_HEADER columns."""
    text, numbers = GAIN_COLUMNS[:3], GAIN_COLUMNS[3:]
    write_csv(path, [",".join([r[k] for k in text] + [fmt(r[k]) for k in numbers])
                     for r in gain_rows], GAIN_HEADER)


def cmd_sweep(args) -> int:
    with open(args.config) as fh:
        cfg = parse_sweep_config(fh.read())
    rows = run_sweep(cfg)
    write_csv(cfg.output, rows)
    print(f"wrote {len(rows)} rows to {cfg.output}")
    return 0


# --------------------------------------------------------------------------
# figure
# --------------------------------------------------------------------------
FIGURE_MU_STEPS = 101


def parse_figure_id(text: str):
    """A ``figure --id`` value: an integer, or ``all``."""
    return text if text == "all" else int(text)


def figure_rows(figure_id: int) -> list[str]:
    ent, s1, s2, groups = FIGURES[figure_id]
    mu = np.arange(FIGURE_MU_STEPS) / (FIGURE_MU_STEPS - 1)
    return [row for game, pairing, p in groups
            for row in payoff_rows(builtin_game(game), Pairing.from_string(pairing),
                                   ent, s1, s2, (p, mu), (p, mu))]


def cmd_figure(args) -> int:
    for fid in sorted(FIGURES) if args.id == "all" else [args.id]:
        path = f"{args.outdir}/figure{fid}.csv"
        rows = figure_rows(fid)
        write_csv(path, rows)
        print(f"wrote {len(rows)} rows to {path}")
    return 0


# --------------------------------------------------------------------------
# nash
# --------------------------------------------------------------------------
def cmd_nash(args) -> int:
    space = QUANTUM_SPACE
    if args.grid:
        try:
            t, a, b = (int(x) for x in args.grid.lower().split("x"))
        except ValueError:
            raise ValueError(f"bad grid spec {args.grid!r}; expected TxAxB") from None
        space = StrategySpace(t, a, b)
    rows, certified = [], True
    for case_id in CASE_IDS if args.case == "all" else [args.case]:
        report = case_study(case_id, space)
        print("\n".join(report.lines()))
        rows += report.gain_rows
        certified &= report.nash_certified
    if args.csv:
        write_gains(args.csv, rows)
        print(f"wrote {len(rows)} gain rows to {args.csv}")
    return 0 if certified else VERIFY_FAIL


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="qgmem",
        description="Two-player quantum games over noisy channels with memory.")
    sub = parser.add_subparsers(dest="command", required=True)

    pay = sub.add_parser("payoff", help="closed-form payoff at one point")
    pay.add_argument("--game", required=True, choices=GAME_NAMES)
    pay.add_argument("--pairing", required=True)
    for name in ANGLES + POINT[:4]:
        pay.add_argument(f"--{name}", type=parse_angle if name in ANGLES else float,
                         required=not name.startswith(("alpha", "beta")), default=0.0)
    pay.set_defaults(func=cmd_payoff)

    ver = sub.add_parser("verify", help="closed form vs Kraus-oracle check")
    ver.add_argument("--pairing", required=True)
    ver.add_argument("--samples", type=int, default=200)
    ver.add_argument("--seed", type=int, default=42)
    ver.add_argument("--tol", type=float, default=1e-9)
    ver.add_argument("--mu-zero", action="store_true",
                     help="restrict amplitude-damping slots to mu = 0")
    ver.set_defaults(func=cmd_verify)

    swp = sub.add_parser("sweep", help="CSV sweep from a key=value config file")
    swp.add_argument("--config", required=True)
    swp.set_defaults(func=cmd_sweep)

    fig = sub.add_parser("figure", help="emit one figure's data as CSV, or all six")
    fig.add_argument("--id", type=parse_figure_id, choices=(*FIGURES, "all"),
                     required=True)
    fig.add_argument("--outdir", default=".")
    fig.set_defaults(func=cmd_figure)

    nsh = sub.add_parser("nash", help="equilibrium case study and certificates")
    nsh.add_argument("--case", choices=(*CASE_IDS, "all"), required=True,
                     help="a case id, or all")
    nsh.add_argument("--grid", default=None, help="quantum grid as TxAxB")
    nsh.add_argument("--csv", default=None, help="write gain rows to CSV")
    nsh.set_defaults(func=cmd_nash)
    return parser


def attach_angle_values(argv: list[str]) -> list[str]:
    """Rewrite ``--alpha2 -pi/2`` as ``--alpha2=-pi/2``: argparse takes a
    separate token that starts with '-' and is not a plain number for an
    option, so a negative angle literal would lose its flag."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in ANGLE_FLAGS and token[:1] == "-" and token[:2] != "--":
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(
            attach_angle_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return UNSUPPORTED if isinstance(exc, MemoryError) else USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
