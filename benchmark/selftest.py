"""Self-test of the benchmark at a tiny size (3x3 sweeps, 2 samples per
pairing, a 3x3x3 grid).  It asserts no speed.

    python3 benchmark/selftest.py

It checks that
* every workload, untraced and traced, reports exactly the metrics named in
  ``BENCHMARK.json``, each with its unit, and passes its output checks;
* the output checks run: with every closed-form payoff shifted by 1e-6,
  operations fail;
* in a directory holding only ``BENCHMARK.json`` and ``benchmark/``, the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run  # pins BLAS threads and puts src/ on the path first
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check_result(workload, result, env, key):
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, (workload, key, set(got) ^ set(want))
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (workload, name, m)
    assert result["correct"] and result["failed"] == 0, (workload, result)
    assert result["attempted"] >= 1
    for field in ("python", "numpy", "nproc", "cpu_model", "blas_threads",
                  "git_commit", "seed", "sizes", "reference_s"):
        assert field in env, field


def shifted_payoffs():
    """Rebind closedform.payoff_surface, wherever it was imported, to a
    version off by 1e-6; returns a function that undoes it."""
    from qgmem import closedform
    orig = closedform.payoff_surface

    def shifted(*args, **kwargs):
        return orig(*args, **kwargs) + 1e-6

    owners = [m for name, m in list(sys.modules.items())
              if name.startswith("qgmem") and getattr(m, "payoff_surface", None) is orig]
    for m in owners:
        m.payoff_surface = shifted
    return lambda: [setattr(m, "payoff_surface", orig) for m in owners]


def check_stripped_checkout():
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(SPEC["command"] + ["--workload", "sweep", "--seed", "1",
                                                 "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0, done
    assert '"metrics"' not in done.stdout, done.stdout


def main() -> int:
    seed = workloads.DEFAULT_SEED
    for workload in workloads.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, env = run.run(workload, seed, 0, trace,
                                  sizes=workloads.TINY)
            check_result(workload, result, env, key)
        undo = shifted_payoffs()
        try:
            result, _ = run.run(workload, seed, 0, False, sizes=workloads.TINY)
        finally:
            undo()
        assert result["failed"] > 0 and not result["correct"], (workload, result)
        if workload != "nash":  # nash cases without certificates still pass
            assert result["failed"] == result["attempted"], (workload, result)
        print(f"{workload}: ok", file=sys.stderr)
    check_stripped_checkout()
    print("selftest passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
