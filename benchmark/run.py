"""qgmem benchmark: one workload, one closed-loop caller, one process.

    python3 benchmark/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ``src/`` of the
same checkout.  BLAS and OpenMP pools are pinned to one thread before numpy
is imported.

A run repeats passes over the workload's operations (see ``workloads.py``)
until ``--seconds`` have gone by, timing each operation on its own and
checking its output after the pass.  A fixed reference kernel that uses no
qgmem code runs before the first and after every timed operation; the
operations' times are scaled by ``REF_S`` over the median reference time of
their pass, so a shared machine that slows down for a while slows the
reference as well and the reported times stay at one reference speed.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it then runs one more pass with the
tracer installed and reports the per-layer metrics.  The last line of
standard output is the JSON result; the line before it is the environment
record.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Set before anything imports numpy.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
MIN_PASSES = 3
PROBE_TIMEOUT_S = 60
# Seconds one reference() call takes at the reference speed: the median on a
# quiet 2-vCPU Intel Xeon VM at 2.1 GHz (Python 3.11.7, numpy 2.4.6).
REF_S = 0.0135
REF_LOOPS = 150

sys.path.insert(0, str(ROOT / "src"))


def setup(workload: str, seed: int, sizes: dict | None, tmp: Path):
    """Import qgmem and build the workload's operations at ``sizes``
    (default ``workloads.FULL``).

    Returns the operations, the sizes and the seconds this took.  Raises
    ImportError when the checkout has no ``src/qgmem``.
    """
    t0 = time.perf_counter()
    import qgmem
    if not Path(qgmem.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"qgmem imported from {qgmem.__file__}, "
                          f"not from {ROOT / 'src'}")
    import workloads
    sizes = workloads.FULL if sizes is None else sizes
    ops = workloads.build(workload, seed, sizes, tmp)
    return ops, sizes, time.perf_counter() - t0


def probe_setup(workload: str, seed: int) -> float:
    """Set-up seconds measured in a fresh process."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.split()[-1])


def peak_rss_mb() -> float:
    """High-water resident set size of this process."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def reference() -> float:
    """Wall seconds of a fixed kernel that uses no qgmem code.

    Its mix follows the workloads: 4x4 complex products built with
    ``np.kron``, scalar float math and formatting, and a 27k-point array
    pass.  It measures how fast the machine runs right now.
    """
    import numpy as np
    a = np.array([[0.6, 0.8j], [0.8, -0.6j]])
    grid = np.linspace(0.0, math.pi, 27 * 1024)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(REF_LOOPS):
        k = np.kron(a, a)
        acc += abs((k @ k.conj().T)[0, 0]) + math.sin(i * 1e-3)
        if i % 8 == 0:
            acc += float(np.cos(grid).sum())
        f"{acc:.17g}"
    return time.perf_counter() - t0


def run_pass(ops, times, tracer=None):
    """Run every operation once, timing each; then check each output.

    Appends (wall, cpu, ref) seconds per operation to ``times``, where
    ``ref`` is the median of the reference times taken before the first
    and after every operation of the pass (untraced passes only; traced
    passes record ``REF_S``).  Returns the failure reasons.  Checks run
    after ``tracer`` is uninstalled, so the oracle calls they make are not
    traced.
    """
    outcomes, measured = [], []
    refs = [reference()] if tracer is None else [REF_S]
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            outcome = op.run()
        except Exception as exc:  # an operation that raises is a failure
            outcome = exc
        measured.append((time.perf_counter() - w0, time.process_time() - c0))
        outcomes.append(outcome)
        if tracer is None:
            refs.append(reference())
    ref = statistics.median(refs)
    for i, (wall, cpu) in enumerate(measured):
        times[i].append((wall, cpu, ref))
    if tracer is not None:
        tracer.uninstall()
    failures = []
    for op, outcome in zip(ops, outcomes):
        if isinstance(outcome, Exception):
            reason = f"raised {outcome!r}"
        else:
            try:
                reason = op.check(*outcome)
            except Exception as exc:  # a check that cannot read the output
                reason = f"check raised {exc!r}"
        if reason is not None:
            failures.append(f"{' '.join(op.argv[:3])}: {reason}")
    return failures


def environment(workload: str, seed: int, sizes: dict) -> dict:
    import numpy
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": commit, "workload": workload, "seed": seed,
        "sizes": sizes,
    }


def scratch_dir() -> tempfile.TemporaryDirectory:
    """A directory for the run's files inside the checkout, removed on exit."""
    OUT.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-")


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: dict | None = None):
    """One benchmark run; returns (result, environment record).

    When untraced, a fresh process measures set-up after each pass, so the
    set-up samples spread over the whole run.
    """
    with scratch_dir() as tmp:
        ops, sizes, own_setup = setup(workload, seed, sizes, Path(tmp))
        setups = [own_setup]
        times = [[] for _ in ops]
        failures = []
        passes = 0
        t0 = time.perf_counter()
        while passes < MIN_PASSES or time.perf_counter() - t0 < seconds:
            failures += run_pass(ops, times)
            passes += 1
            if not trace:
                setups.append(probe_setup(workload, seed))
        attempted = passes * len(ops)
        items = sum(op.items for op in ops)
        wall = sum(statistics.median(w * REF_S / r for w, _, r in t)
                   for t in times)
        cpu = sum(statistics.median(c * REF_S / r for _, c, r in t)
                  for t in times)
        raw_wall = sum(statistics.median(w for w, _, _ in t) for t in times)
        ref_s = statistics.median(r for t in times for _, _, r in t)
        items_per_s = items / wall

        if trace:
            from tracing import Tracer
            tracer = Tracer()
            traced_times = [[] for _ in ops]
            tracer.install()
            failures += run_pass(ops, traced_times, tracer)
            attempted += len(ops)
            traced_wall = sum(t[0][0] for t in traced_times)
            metrics = tracer.metrics()
            metrics["trace.overhead_ratio"] = (traced_wall / raw_wall, "ratio")
            tracer.dump(OUT / f"spans-{workload}.tsv")
        else:
            metrics = {"items_per_s": (items_per_s, "1/s"),
                       "cpu_s": (cpu, "s"),
                       "setup_s": (statistics.median(setups), "s"),
                       "peak_rss_mb": (peak_rss_mb(), "MB")}

    for reason in failures[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(f"{workload}: {passes} passes of {len(ops)} operations, "
          f"{items} items per pass, error_ratio "
          f"{len(failures) / attempted:.3g}; unscaled items_per_s "
          f"{items / raw_wall:.6g}, median reference {ref_s:.6g} s "
          f"(REF_S {REF_S})", file=sys.stderr)
    result = {
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    env = environment(workload, seed, sizes)
    env["reference_s"] = ref_s
    return result, env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "verify", "nash"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds and exit")
    args = parser.parse_args(argv)
    try:
        if args.setup_only:
            with scratch_dir() as tmp:
                print(setup(args.workload, args.seed, None, Path(tmp))[2])
            return 0
        result, env = run(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    except (ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark cannot run: {exc!r}", file=sys.stderr)
        return 2
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
