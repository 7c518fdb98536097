"""Command-line front end: single payoffs, oracle-vs-closed-form checks,
parameter sweeps, figure-data CSVs, and equilibrium case studies.

Exit codes: 0 success, 2 usage or range error, 3 unsupported configuration
(an input too large to allocate, or a sweep over MAX_SWEEP_ROWS rows), 4
verification or certificate failure (including an imaginary payoff residue).
All output is deterministic: CSV files are byte-identical across runs for
the same inputs.

Start-up loads only what every subcommand runs: ``verify`` imports ``oracle``,
and ``figure`` and ``nash`` import ``equilibrium``, inside their functions, each
name read from its module at call time.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import random
import sys
from collections import namedtuple

import numpy as np

from .channels import ChannelKind
from .closedform import Pairing, closed_payoff, closed_payoff_pair
from .games import GAME_NAMES, Bimatrix, builtin_game
from .protocol import (EntanglementParams, StrategyParams, measure_payoff,
                       payoff_operator)
from .qmat import DOMAINS

# The twelve parameters of a game point, in CSV column order.
POINT = ("p1", "mu1", "p2", "mu2", "gamma", "delta",
         "theta1", "alpha1", "beta1", "theta2", "alpha2", "beta2")
CSV_HEADER = ",".join(("game", "pairing", *POINT, "payoff_a", "payoff_b"))
# The columns of a certificate's gain table (``equilibrium.CaseClaim.gains``), in
# ``nash --csv`` order.
GAIN_COLUMNS = ("case", "pairing", "game", "p", "mu",
                "payoff_a", "payoff_b", "gain_a", "gain_b")
GAIN_HEADER = ",".join(GAIN_COLUMNS)

USAGE_ERROR, UNSUPPORTED, VERIFY_FAIL = 2, 3, 4

ANGLES = POINT[4:]
NUMBER_FLAGS = {f"--{name}" for name in (*POINT, "tol")}


def parse_angle(text: str) -> float:
    """Angles are radians: one optional sign, then ``pi`` or ``pi/N`` with N
    finite and nonzero (``-pi/4``, ``pi/-2``); any other token is a plain float."""
    token = text.strip().lower().replace(" ", "")
    sign = -1.0 if token.startswith("-") else 1.0
    body = token[1:] if token.startswith(("-", "+")) else token
    if body == "pi":
        return sign * math.pi
    if body.startswith("pi/") and math.isfinite(n := float(body[3:])) and n != 0:
        return sign * math.pi / n
    return float(token)


# The 12-significant-digit decimal format of every number the CLI writes.
NUMBER = "%.12g"
CSV_CHUNK = 512  # CSV rows joined per write


def fmt(value: float) -> str:
    return NUMBER % value


def make_row(columns) -> str:
    """The CSV row template of a table's columns: a constant as it prints,
    ``%s`` for an array of text, NUMBER for an array of numbers."""
    return ",".join(("%s" if v.dtype.kind in "OU" else NUMBER) if isinstance(v, np.ndarray)
                    else v.replace("%", "%%") if isinstance(v, str) else fmt(v)
                    for v in columns)


def table_rows(columns) -> list[str]:
    """CSV rows of a table whose columns (text, numbers or arrays, at least one an array)
    broadcast, last axis fastest; a smaller number array is formatted once per element."""
    shape = np.broadcast_shapes(*map(np.shape, columns))
    size = math.prod(shape)
    columns = [np.frompyfunc(fmt, 1, 1)(v) if isinstance(v, np.ndarray) and v.dtype.kind
               not in "OU" and v.size < size else v for v in columns]
    cells = [(v if v.size == size else np.broadcast_to(v, shape)).ravel().tolist()
             for v in columns if isinstance(v, np.ndarray)]
    template = make_row(columns)
    return [template % row for row in zip(*cells)]


def game_point(pairing: Pairing, values):
    """(ent, s1, s2, ch1, ch2) of ``pairing`` from a mapping of the POINT
    names, checked in POINT order from gamma on, then p1, mu1, p2, mu2."""
    p1, mu1, p2, mu2, *angles = (values[name] for name in POINT)
    return (EntanglementParams(*angles[:2]), StrategyParams(*angles[2:5]),
            StrategyParams(*angles[5:]), *pairing.crossings((p1, mu1), (p2, mu2)))


# --------------------------------------------------------------------------
# payoff
# --------------------------------------------------------------------------
def cmd_payoff(args) -> int:
    pairing = Pairing.from_string(args.pairing)
    pa, pb = closed_payoff_pair(builtin_game(args.game), *game_point(pairing, vars(args)))
    print(f"payoff_a={fmt(pa)} payoff_b={fmt(pb)}")
    return 0


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------
VERIFY_BLOCK = 512  # samples evaluated per array call
# A verify tuple's 16 draws in stream order, each name with its (lo, hi): the
# entries from (-2, 5), each game-point name from its parameter's DOMAINS row.
DRAWS = {**dict.fromkeys(("e00", "e01", "e10", "e11"), (-2.0, 5.0)),
         **{name: DOMAINS[name.rstrip("12")][:2]
            for name in (*ANGLES, "mu1", "p1", "mu2", "p2")}}


def verify_blocks(pairing: Pairing, samples: int, seed: int, mu_zero: bool):
    """The ``verify`` tuples, VERIFY_BLOCK at a time, as dicts of n draws per
    DRAWS name.  Each draw is lo + (hi - lo) * random() with its name's
    bounds, as in ``random.uniform``; the Mersenne Twister stream is stable
    across Python versions for a fixed integer seed.  A block's 16n draws
    come from one ``getrandbits`` call: its bytes are the stream's 32-bit
    words in order, little-endian, and each pair (a, b) gives ((a >> 5) 2^26
    + (b >> 6)) 2^-53, the formula of ``random()`` itself, with every step
    exact.  ``mu_zero`` zeroes amplitude-damping memories once drawn."""
    rng, (lo, hi) = random.Random(seed), np.array([*DRAWS.values()]).T
    for start in range(0, samples, VERIFY_BLOCK):
        n = min(VERIFY_BLOCK, samples - start)
        a, b = np.frombuffer(rng.getrandbits(1024 * n).to_bytes(128 * n, "little"),
                             "<u4").reshape(n, 16, 2).transpose(2, 0, 1)
        u = ((a >> 5) * 67108864.0 + (b >> 6)) * (1.0 / 9007199254740992.0)
        draws = dict(zip(DRAWS, np.ascontiguousarray((lo + (hi - lo) * u).T)))
        for name, kind in (("mu1", pairing.first), ("mu2", pairing.second)):
            if mu_zero and kind is ChannelKind.AMPLITUDE_DAMPING:
                draws[name][:] = 0.0
        yield draws


def cmd_verify(args) -> int:
    from .oracle import two_pass_state
    pairing = Pairing.from_string(args.pairing)
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError(f"--tol must be finite and >= 0, got {args.tol}")
    worst = 0.0
    for draws in verify_blocks(pairing, args.samples, args.seed, args.mu_zero):
        point = game_point(pairing, draws)
        entries = np.array([draws[name] for name in DRAWS if name not in POINT])
        closed = closed_payoff(entries, *point)
        rho = two_pass_state(*point)
        simulated = measure_payoff(payoff_operator(point[0].delta, entries), rho)
        # np.max keeps a NaN difference, which then fails the tolerance.
        worst = float(np.max(np.abs(closed - simulated), initial=worst))
    print(f"pairing={pairing.value} samples={args.samples} seed={args.seed} "
          f"max_abs_diff={worst:.3e} tol={args.tol:.3e}")
    return 0 if worst <= args.tol else VERIFY_FAIL


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------
SWEEPABLE = POINT[:4] + POINT[-3:]  # the channels and Bob's angles
# Largest |entry| of a custom game: a payoff sums a few entries times weights
# of at most 1, so it stays far below the float range.
ENTRY_BOUND = 1e300
# Most rows of a sweep: 1000 times 101x101, a peak of 2.9-5.2 GB (501x501 scaled up).
MAX_SWEEP_ROWS = 10**7


# A sweep's game, pairing, game point and output path: each swept POINT name
# holds its ramp on its own axis, in POINT order with the last axis fastest.
SweepConfig = namedtuple("SweepConfig", "game pairing point output")


def parse_sweep_config(text: str) -> SweepConfig:
    """Flat key=value lines with # comments; axes as ``sweep.mu1 = 0:1:11``."""
    values, lines = {}, {}  # key -> value text, key -> line number
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value")
        key, _, val = (part.strip() for part in line.partition("="))
        if key in values:
            raise ValueError(f"config line {lineno}: repeated key {key!r}")
        values[key], lines[key] = val, lineno

    def take(key: str) -> str:
        if key not in values:
            raise ValueError(f"missing required key {key!r}")
        return values.pop(key)

    def parse(key: str, token: str, kind=float):
        try:
            return kind(token)
        except ValueError:
            raise ValueError(f"config line {lines[key]}: {key}: invalid {kind.__name__} "
                             f"value: {token.strip()!r}") from None

    name = take("game")
    if name == "custom":
        entries_a, entries_b = ([parse(key, x) for x in take(key).split(",")]
                                for key in ("entries_a", "entries_b"))
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
    pairing, output = Pairing.from_string(take("pairing")), values.pop("output", "sweep.csv")

    point, specs = dict.fromkeys(POINT, 0.0), {}  # specs: axis -> (text, start, stop, steps)
    for key, val in values.items():
        axis = key.removeprefix("sweep.")
        number = parse_angle if axis in ANGLES else float
        if key.startswith("sweep."):
            if axis not in SWEEPABLE:
                raise ValueError(f"cannot sweep {axis!r}; choose from {SWEEPABLE}")
            if axis in values:
                raise ValueError(f"{axis!r} is both fixed and swept ({key!r})")
            parts = val.split(":")
            if len(parts) != 3:
                raise ValueError(f"axis {axis}: expected start:stop:steps, got {val!r}")
            start, stop, steps = map(parse, [key] * 3, parts, (number, number, int))
            if steps < 2:
                raise ValueError(f"axis {axis}: steps must be >= 2")
            specs[axis] = (val, start, stop, steps)
        elif key in POINT:
            point[key] = parse(key, val, number)
        else:
            raise ValueError(f"unknown config key {key!r}")
    if not specs:
        raise ValueError("at least one sweep.<axis> line is required")
    if (rows := math.prod(spec[-1] for spec in specs.values())) > MAX_SWEEP_ROWS:
        raise MemoryError(f"a sweep of {rows} rows exceeds the bound of {MAX_SWEEP_ROWS}")
    swept = [axis for axis in POINT if axis in specs]
    for axis, (val, start, stop, steps) in specs.items():
        # steps - 1 fits a float now; inf would warn in the formula, nan fails the range check
        if any(map(math.isinf, (start, stop, (stop - start) * (steps - 1)))):
            raise ValueError(f"axis {axis}: start, stop and (stop - start) * "
                             f"(steps - 1) must be finite, got {val!r}")
        ramp = start + (stop - start) * np.arange(steps) / (steps - 1)
        ramp[-1] = stop  # the ramp's last value can round one ulp past stop
        point[axis] = ramp.reshape((-1,) + (1,) * (len(swept) - 1 - swept.index(axis)))
    return SweepConfig(game, pairing, point, output)


def run_sweep(cfg: SweepConfig) -> list[str]:
    """Rows in lexicographic axis order (POINT order, last fastest)."""
    payoffs = closed_payoff_pair(cfg.game, *game_point(cfg.pairing, cfg.point))
    return table_rows([cfg.game.name, cfg.pairing.value, *map(cfg.point.get, POINT), *payoffs])


def write_csv(path: str, rows: list[str], header: str = CSV_HEADER) -> None:
    """The header line, then CSV_CHUNK rows at a time: never the whole text at once."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for start in range(0, len(rows), CSV_CHUNK):
            fh.write("\n".join(rows[start:start + CSV_CHUNK]) + "\n")


def cmd_sweep(args) -> int:
    try:
        with open(args.config, encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"config {args.config!r} must be UTF-8 text: "
                         f"{exc.reason} at byte {exc.start}") from None
    cfg = parse_sweep_config(text)
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


def chosen(kind: str, token, ids) -> list:
    """The ids that a ``--case`` or ``--id`` value names: every one of ``ids`` for
    ``all``, else the one it is; any other value is refused."""
    if token == "all":
        return list(ids)
    if token not in ids:
        raise ValueError(f"unknown {kind} {token!r}; choose from "
                         f"{', '.join(map(str, (*ids, 'all')))}")
    return [token]


def figure_rows(figure_id: int) -> list[str]:
    """The figure's rows: one table over its games, pairings, p = p1 = p2 and
    mu = mu1 = mu2 (mu fastest), its (Alice, Bob) payoffs one ``mu_curves`` array."""
    from .equilibrium import FIGURES, mu_curves
    ent, s1, s2, games, pairings, ps = FIGURES[figure_id]
    mu = np.arange(FIGURE_MU_STEPS) / (FIGURE_MU_STEPS - 1)
    curves = mu_curves(pairings, [builtin_game(g) for g in games], ent, s1, s2, ps, mu)
    return table_rows([np.array(games)[:, None, None, None],
                       np.array([pairing.value for pairing in pairings])[:, None, None],
                       *(np.array(ps)[:, None], mu) * 2, ent.gamma, ent.delta, *s1.angles,
                       *s2.angles, *np.swapaxes(curves, 1, 2)])


def cmd_figure(args) -> int:
    from .equilibrium import FIGURES
    for fid in chosen("figure id", args.id, sorted(FIGURES)):
        path = os.path.join(args.outdir, f"figure{fid}.csv")
        rows = figure_rows(fid)
        write_csv(path, rows)
        print(f"wrote {len(rows)} rows to {path}")
    return 0


# --------------------------------------------------------------------------
# nash
# --------------------------------------------------------------------------
def cmd_nash(args) -> int:
    from .equilibrium import CASE_IDS, QUANTUM_SPACE, StrategySpace, case_study
    case_ids, space = chosen("case id", args.case, CASE_IDS), QUANTUM_SPACE
    if args.grid:
        try:
            t, a, b = (int(x) for x in args.grid.lower().split("x"))
        except ValueError:
            raise ValueError(f"bad grid spec {args.grid!r}; expected TxAxB") from None
        space = StrategySpace(t, a, b)
    certificates = []  # the claims that carry a gain table
    for case_id in case_ids:
        report = case_study(case_id, space)
        print("\n".join(report.lines()))
        certificates += [claim for claim in report.claims if claim.gains is not None]
    if args.csv:
        rows = [row for claim in certificates for row in table_rows(claim.gains)]
        write_csv(args.csv, rows, GAIN_HEADER)
        print(f"wrote {len(rows)} gain rows to {args.csv}")
    return 0 if all(claim.passed for claim in certificates) else VERIFY_FAIL


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
    fig.add_argument("--id", type=parse_figure_id, required=True)
    fig.add_argument("--outdir", default=".")
    fig.set_defaults(func=cmd_figure)

    nsh = sub.add_parser("nash", help="equilibrium case study and certificates")
    nsh.add_argument("--case", required=True, help="a case id, or all")
    nsh.add_argument("--grid", default=None, help="quantum grid as TxAxB")
    nsh.add_argument("--csv", default=None, help="write gain rows to CSV")
    nsh.set_defaults(func=cmd_nash)
    return parser


def attach_number_values(argv: list[str]) -> list[str]:
    """Rewrite ``--alpha2 -pi/2`` as ``--alpha2=-pi/2``: argparse takes a
    separate token that starts with '-' and is not a plain decimal (such as
    ``-pi/2`` or ``-1e-3``) for an option, so the value would lose its flag."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in NUMBER_FLAGS and token[:1] == "-" and token[:2] != "--":
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(
            attach_number_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, MemoryError, ArithmeticError) as exc:
        # A KeyError's str() quotes its message; print the message itself.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return (UNSUPPORTED if isinstance(exc, MemoryError)
                else VERIFY_FAIL if isinstance(exc, ArithmeticError) else USAGE_ERROR)


if __name__ == "__main__":
    sys.exit(main())
