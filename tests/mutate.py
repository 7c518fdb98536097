"""A mutation catalogue: each mutant is one textual edit of ``src/qgmem``
and names the test files that must notice it.

    python3 tests/mutate.py

Each mutant is applied to a fresh temporary copy of ``src/``, ``tests/``,
``benchmark/``, ``README.md`` and ``pyproject.toml`` (under ``$TMPDIR``), and
its test files run there with pytest.  The kill matrix has one row per
mutant and one column per test file: the failing tests of that file, ``.``
for none, ``-`` where the file was not run.  A mutant that no named file
kills is a survivor.  ``tests/golden/mutants.txt`` lists the known
survivors, each with the reason no test kills it; the script exits 1 when
the survivors differ from that list.  Standard library only; pytest does
not collect this file.  ``tests/test_layout.py`` checks that every pattern
occurs exactly once in ``src/`` and that the mutated module still parses,
so a site cannot silently stop applying.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter, namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

Mutant = namedtuple("Mutant", "name module pattern replacement tests")

MUTANTS = [
    # Phase products as data.
    Mutant("delta-parts-swapped", "closedform",
           "(np.sin(a1 + a2 + b1 + b2), np.sin(a1 - a2 + b1 - b2))",
           "(np.sin(a1 - a2 + b1 - b2), np.sin(a1 + a2 + b1 + b2))",
           ("test_closedform.py", "test_golden.py")),
    Mutant("scan-on-slice-0", "closedform",
           "sum_products(sectors, sums_i, products, bufs)[i // n].max()",
           "sum_products(sectors, sums_i, products, bufs)[0].max()",
           ("test_equilibrium.py",)),
    Mutant("one-part-row-scaled", "closedform",
           "term = np.multiply(parts[0], k[0], out=tmp)",
           "term = np.multiply(scale * parts[0], k[0], out=tmp)",
           ("test_closedform.py", "test_golden.py")),
    Mutant("gains-by-fmax", "equilibrium",
           "np.maximum(best - pay, 0.0)",
           "np.fmax(best - pay, 0.0)",
           ("test_equilibrium.py",)),
    Mutant("least-as-nanmin", "equilibrium",
           "return np.take_along_axis(values, np.argmin(values, axis=-1, keepdims=True), -1)[..., 0]",
           "return np.nanmin(values, axis=-1)",
           ("test_equilibrium.py",)),
    Mutant("equal-payoffs-by-max", "equilibrium",
           "worst = np.max(abs(alice - bob))",
           "worst = max(abs(alice - bob).ravel().tolist())",
           ("test_equilibrium.py",)),
    Mutant("worst-gain-by-max", "equilibrium",
           "worst = certs[..., 2:].max()",
           "worst = max(certs[..., 2:].ravel().tolist())",
           ("test_equilibrium.py",)),
    Mutant("unread-helper", "closedform",
           "def grid_maxima(",
           "def live_products(phases):\n    return phases\n\n\ndef grid_maxima(",
           ("test_layout.py",)),
    # payoff_surface takes the weights.
    Mutant("certificate-crossings-swapped", "equilibrium",
           "w = batch_weights(ent, ch1, ch2)",
           "w = batch_weights(ent, ch2, ch1)",
           ("test_golden.py", "test_equilibrium.py")),
    Mutant("mu-curves-gamma-delta-exchanged", "equilibrium",
           "np.stack([closed_payoff(entries, ent,",
           "np.stack([closed_payoff(entries, EntanglementParams(ent.delta, ent.gamma),",
           ("test_golden.py", "test_equilibrium.py")),
    Mutant("verify-weights-from-ch1", "cli",
           "closed = closed_payoff(entries, *point)",
           "closed = closed_payoff(entries, *point[:4], point[3])",
           ("test_golden.py", "test_cli.py")),
    Mutant("phase-independence-by-max", "equilibrium",
           "worst = np.max([np.ptp(",
           "worst = (lambda x: max(np.ravel(x)))([np.ptp(",
           ("test_equilibrium.py",)),
    # Each claim reads one (Alice, Bob) array.
    Mutant("mu-curves-pairings-reversed", "equilibrium",
           "for pairing in pairings], axis=1)",
           "for pairing in [*pairings][::-1]], axis=1)",
           ("test_golden.py", "test_equilibrium.py")),
    Mutant("monotone-sign-flipped", "equilibrium",
           "sign * values[..., 1:] >= sign * values[..., :-1]",
           "-sign * values[..., 1:] >= -sign * values[..., :-1]",
           ("test_golden.py", "test_equilibrium.py", "test_acceptance.py")),
    Mutant("least-as-np-min", "equilibrium",
           "return np.take_along_axis(values, np.argmin(values, axis=-1, keepdims=True), -1)[..., 0]",
           "return np.min(values, axis=-1)",
           ("test_golden.py", "test_equilibrium.py", "test_acceptance.py")),
    Mutant("max-noise-least-by-nanargmin", "equilibrium",
           "np.unravel_index(np.argmin(margins), margins.shape)",
           "np.unravel_index(np.nanargmin(margins), margins.shape)",
           ("test_equilibrium.py",)),
    # One closed-form entry point; certificates as one array.
    Mutant("closed-payoff-players-swapped", "closedform",
           "entries, ent, *s1.angles, *s2.angles)",
           "entries, ent, *s2.angles, *s1.angles)",
           ("test_closedform.py", "test_golden.py")),
    Mutant("nash-rows-stack-reversed", "equilibrium",
           "certs[stack] = check_profile(",
           "certs[stack[::-1]] = check_profile(",
           ("test_golden.py", "test_equilibrium.py")),
    # Swept values formatted once; one curve array per figure; the sweep row bound.
    Mutant("figure-groups-at-first-p", "cli",
           "*s2.angles, *np.swapaxes(curves, 1, 2)])",
           "*s2.angles, *np.swapaxes(curves[..., :1, :], 1, 2)])",
           ("test_golden.py", "test_cli.py")),
    Mutant("text-column-fortran-order", "cli",
           "cells = [(v if v.size == size else np.broadcast_to(v, shape)).ravel().tolist()",
           "cells = [(v if v.size == size else np.broadcast_to(v, shape))"
           ".ravel(\"FC\"[v.dtype.kind not in \"OU\"]).tolist()",
           ("test_golden.py", "test_cli.py")),
    Mutant("sweep-bound-inclusive", "cli",
           "specs.values())) > MAX_SWEEP_ROWS:",
           "specs.values())) >= MAX_SWEEP_ROWS:",
           ("test_cli.py",)),
    # A swept value's axis follows POINT, not the config's line order.
    Mutant("sweep-axes-in-config-order", "cli",
           "swept = [axis for axis in POINT if axis in specs]",
           "swept = list(specs)",
           ("test_golden.py", "test_cli.py")),
    # One name per depolarizing coefficient; the layout from the second crossing.
    Mutant("layout-rule-inverted", "closedform",
           "_damped if ch2.kind is ChannelKind.AMPLITUDE_DAMPING else _unital",
           "_unital if ch2.kind is ChannelKind.AMPLITUDE_DAMPING else _damped",
           ("test_closedform.py", "test_golden.py")),
    Mutant("delta-mirror-unmirrored", "closedform",
           "builder(cg, sg, sd, cd, a, b)",
           "builder(cg, sg, cd, sd, a, b)",
           ("test_closedform.py", "test_golden.py")),
    Mutant("ph-d-flip-weights-swapped", "closedform",
           "(v.a * cg + v.b * sg) * cd + (v.a * sg + v.b * cg) * sd, v.d",
           "(v.a * cg + v.d * sg) * cd + (v.a * sg + v.d * cg) * sd, v.b",
           ("test_closedform.py", "test_golden.py")),
    # A sweep axis ends exactly at stop.
    Mutant("sweep-end-unpinned", "cli",
           "ramp[-1] = stop",
           "pass",
           ("test_fuzz_cli.py",)),
    # Each axis end parsed by its column's rule; the whole-stack scan; sites
    # that were once mutated by hand.
    Mutant("axis-ends-parsed-as-angles", "cli",
           "map(parse, [key] * 3, parts, (number, number, int))",
           "map(parse, [key] * 3, parts, (parse_angle, parse_angle, int))",
           ("test_cli.py",)),
    Mutant("liveness-ignores-scale", "closedform",
           "if any(c.any() for c in group) and np.any(scale)]",
           "if any(c.any() for c in group)]",
           ("test_equilibrium.py",)),
    Mutant("point-filter-dropped", "closedform",
           "for k, (_, scale, parts) in zip(ks, live) if any(k)]",
           "for k, (_, scale, parts) in zip(ks, live)]",
           ("test_equilibrium.py", "test_golden.py")),
    Mutant("sector-sum-reversed", "closedform",
           "total = cc * kcc + ss * kss + sc * ksc + cs * kcs",
           "total = cs * kcs + sc * ksc + ss * kss + cc * kcc",
           ("test_closedform.py", "test_golden.py")),
    Mutant("angle-divisor-finiteness-dropped", "cli",
           "math.isfinite(n := float(body[3:])) and n != 0",
           "(n := float(body[3:])) != 0",
           ("test_cli.py",)),
    Mutant("game-point-p1-mu1-swapped", "cli",
           "pairing.crossings((p1, mu1), (p2, mu2))",
           "pairing.crossings((mu1, p1), (p2, mu2))",
           ("test_cli.py", "test_golden.py")),
    Mutant("verify-draws-p-before-mu", "cli",
           '(*ANGLES, "mu1", "p1", "mu2", "p2")',
           '(*ANGLES, "p1", "mu1", "mu2", "p2")',
           ("test_cli.py", "test_golden.py")),
    Mutant("verify-mu-zero-zeroes-p", "cli",
           '(("mu1", pairing.first), ("mu2", pairing.second))',
           '(("p1", pairing.first), ("p2", pairing.second))',
           ("test_cli.py", "test_golden.py")),
    Mutant("verify-word-pair-swapped", "cli",
           "a, b = np.frombuffer(rng.getrandbits(",
           "b, a = np.frombuffer(rng.getrandbits(",
           ("test_cli.py", "test_golden.py")),
    Mutant("memory-error-as-usage", "cli",
           "return (UNSUPPORTED if isinstance(exc, MemoryError)",
           "return (USAGE_ERROR if isinstance(exc, MemoryError)",
           ("test_cli.py",)),
    Mutant("damp-mu-mix-swapped", "oracle",
           "return (1.0 - mu) * unc.reshape(cor.shape) + mu * cor",
           "return mu * unc.reshape(cor.shape) + (1.0 - mu) * cor",
           ("test_oracle.py", "test_golden.py")),
    Mutant("chi-unconjugated", "oracle",
           "_PAULI_PAIRS, _PAULI_PAIRS, _PAULI_PAIRS.conj(),",
           "_PAULI_PAIRS, _PAULI_PAIRS, _PAULI_PAIRS,",
           ("test_oracle.py", "test_golden.py")),
    # Alice certified on the classical grid; the payoff column's length; the
    # oracle's joint weights; one sector weight's sign.
    Mutant("nash-alice-on-quantum-grid", "equilibrium",
           "*ALICE_MESH, *angles(twos, nd + 3)),",
           "*space.mesh(), *angles(twos, nd + 3)),",
           ("test_equilibrium.py", "test_golden.py")),
    Mutant("surface-entry-count-unchecked", "closedform",
           "    if len(entries) != 4:\n"
           "        raise ValueError(f\"expected 4 payoff entries, got {len(entries)}\")\n"
           "    sectors, phases",
           "    sectors, phases",
           ("test_closedform.py",)),
    Mutant("operator-entry-count-unchecked", "protocol",
           "    if len(entries) != 4:\n"
           "        raise ValueError(f\"expected 4 payoff entries, got {len(entries)}\")\n"
           "    v, e = measurement_basis(delta)",
           "    v, e = measurement_basis(delta)",
           ("test_closedform.py", "test_protocol.py")),
    Mutant("pair-weights-mu-mix-swapped", "channels",
           "((1.0 - mu) * probs[..., None, :] + mu * np.eye(4))",
           "(mu * probs[..., None, :] + (1.0 - mu) * np.eye(4))",
           ("test_channels.py", "test_oracle.py")),
    Mutant("d-ad-et3-sign-flipped", "closedform",
           "(d11 + d21) * x2.chi_a * sd",
           "(d11 - d21) * x2.chi_a * sd",
           ("test_closedform.py", "test_golden.py")),
    # One table builder: a gain claim's profile labels run along its profile axis.
    Mutant("gain-labels-along-points", "equilibrium",
           "*labels.T[:, :, None]",
           "*labels.T[:, None]",
           ("test_golden.py", "test_equilibrium.py")),
    # Slot 2's depolarizing coherence rounds apart from slot 1's.
    Mutant("depol-slot2-coherence-as-slot1", "closedform",
           "f, g = u.coh_base - (2 / 3) * (mu * p), u.a - 2 * u.d + u.b",
           "f, g = u.coh_base - (2 / 3) * mu * p, u.a - 2 * u.d + u.b",
           ("test_golden.py",)),
    # Only the claims that carry a gain table decide the nash exit.
    Mutant("nash-exit-reads-every-claim", "cli",
           "certificates += [claim for claim in report.claims if claim.gains is not None]",
           "certificates += report.claims",
           ("test_cli.py", "test_acceptance.py")),
    # Each phase row reads its own factor group; each draw its own bounds.
    Mutant("delta-factors-swapped", "closedform",
           "(w.h_diag * (e00 - e11), w.h_off * (e01 - e10))",
           "(w.h_off * (e01 - e10), w.h_diag * (e00 - e11))",
           ("test_closedform.py", "test_golden.py")),
    Mutant("point-filter-all-factors", "closedform",
           "zip(ks, live) if any(k)]",
           "zip(ks, live) if all(k)]",
           ("test_equilibrium.py", "test_golden.py")),
    Mutant("verify-alpha1-on-theta-range", "cli",
           'DOMAINS[name.rstrip("12")]',
           'DOMAINS[{"alpha1": "theta"}.get(name, name.rstrip("12"))]',
           ("test_cli.py", "test_golden.py")),
    # Each pairing holds its kinds; a certificate stacks its entries once; a
    # config's leading BOM.
    Mutant("pairing-kinds-swapped", "closedform",
           "self.first, self.second = map(ChannelKind",
           "self.second, self.first = map(ChannelKind",
           ("test_closedform.py", "test_golden.py", "test_equilibrium.py")),
    Mutant("builder-by-swapped-kinds", "closedform",
           "_BUILDERS[ch1.kind, ch2.kind]",
           "_BUILDERS[ch2.kind, ch1.kind]",
           ("test_closedform.py", "test_golden.py", "test_equilibrium.py")),
    Mutant("alice-scans-bob-entries", "equilibrium",
           "grid_maxima(w, entries[:, :, 0], ent, shape,",
           "grid_maxima(w, entries[:, :, 1], ent, shape,",
           ("test_golden.py", "test_equilibrium.py")),
    Mutant("config-bom-kept", "cli",
           'encoding="utf-8-sig"',
           'encoding="utf-8"',
           ("test_cli.py",)),
    # Each parameter's domain stated once, in one table.
    Mutant("delta-domain-to-pi", "qmat",
           '"delta": (0.0, np.pi / 2, "[0, pi/2]")',
           '"delta": (0.0, np.pi, "[0, pi/2]")',
           ("test_cli.py", "test_protocol.py", "test_golden.py")),
    # A subcommand imports only what it runs; a record checks its own ranges.
    Mutant("eager-equilibrium-import", "cli",
           "from .closedform import Pairing, closed_payoff, closed_payoff_pair",
           "from .closedform import Pairing, closed_payoff, closed_payoff_pair\n"
           "from .equilibrium import CASE_IDS, QUANTUM_SPACE, StrategySpace, case_study",
           ("test_cli.py",)),
    Mutant("strategy-beta-unchecked", "qmat",
           "if name in DOMAINS:",
           'if name in DOMAINS and name != "beta":',
           ("test_qmat.py", "test_protocol.py")),
]

COPIED = ("src", "tests", "benchmark", "README.md", "pyproject.toml")
SURVIVORS = ROOT / "tests" / "golden" / "mutants.txt"
REPORTED = re.compile(r"^(?:FAILED|ERROR) tests/([\w.]+\.py)", re.MULTILINE)


def kills(mutant: Mutant) -> Counter:
    """Failing tests per named test file, with ``mutant`` applied to a
    temporary copy of the repository."""
    with tempfile.TemporaryDirectory(prefix="qgmem-mutant-") as tmp:
        tmp = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, tmp / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(src, tmp / name)
        path = tmp / "src" / "qgmem" / f"{mutant.module}.py"
        text = path.read_text()
        if text.count(mutant.pattern) != 1:
            raise SystemExit(f"{mutant.name}: pattern does not occur once in {path.name}")
        path.write_text(text.replace(mutant.pattern, mutant.replacement))
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             *(f"tests/{name}" for name in mutant.tests)],
            cwd=tmp, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(tmp / "src")})
    found = Counter(REPORTED.findall(run.stdout))
    if run.returncode not in (0, 1) and not found:
        raise SystemExit(f"{mutant.name}: pytest exited {run.returncode}\n{run.stdout}")
    return found


def known_survivors() -> dict[str, str]:
    """Name -> reason of each known survivor in ``SURVIVORS``."""
    lines = SURVIVORS.read_text().splitlines()
    return dict(line.split(maxsplit=1) for line in lines if line and not line.startswith("#"))


def main() -> int:
    files = sorted({name for m in MUTANTS for name in m.tests})
    width = max(len(m.name) for m in MUTANTS)
    print(" " * width, *(f"{name:>20}" for name in files))
    survivors = []
    for m in MUTANTS:
        found = kills(m)
        cells = [str(found[name] or ".") if name in m.tests else "-" for name in files]
        print(f"{m.name:<{width}}", *(f"{cell:>20}" for cell in cells), flush=True)
        if not any(found[name] for name in m.tests):
            survivors.append(m.name)
    known = known_survivors()
    print("survivors:", ", ".join(survivors) or "none")
    print("known survivors:", ", ".join(known) or "none")
    return 1 if set(survivors) != set(known) else 0


if __name__ == "__main__":
    sys.exit(main())
