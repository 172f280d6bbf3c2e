"""Benchmark command: end-to-end metrics of one workload, or the traced
per-layer metrics of all of them.

Usage, from the repository root::

    python3 perfbench/run.py --workload gd_sync_serial --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` runs the named workload untraced for ``--seconds`` seconds
and reports its end-to-end metrics.  ``--trace 1`` runs the traced pass
of every workload (``--seconds`` shared between them, set-up included)
and reports the per-layer metrics, each named ``<workload>.<layer
metric>``: every layer metric belongs to the workload where it is
expected to move, so the traced run always covers all three.
``BENCHMARK.json`` gates the end-to-end metrics of ``gd_sync_serial``
and ``alg1_process`` only; ``service_chunked`` runs the same way, but
its wall times drift too far between runs on a shared two-CPU host to
hold a bound (its layers are still traced).  The workloads are
described in ``workloads.py``, the wrappers in ``tracer.py``, the traced
pass in ``traced.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the machine fingerprint, the sample counts, the median
solve and iteration times in seconds (``solve_s``, ``iter_s_p50``),
the reference probe's median time ``ref_s`` (the base of the gated
``solve_rel`` and ``iter_rel_p50``, see ``workloads.RefProbe``), the
tail latencies ``iter_s_tail`` and ``job_s_tail`` with their
percentiles, the throughput ``jobs_per_s`` and median latency
``job_s_p50`` of the operations, the two terms of ``peak_rss_mb``, and
``failed_ratio`` with its attempted count.  A failed correctness check
sets ``correct`` to false and makes the exit code 1.  The command
refuses to run (exit code 2) while any ``REPRO_*`` environment variable
is set, since those change what a workload runs.  Inputs and job
directories live in a scratch directory under ``.perfbench_tmp/`` at
the repository root, removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("gd_sync_serial", "alg1_process", "service_chunked")

#: End-to-end metric units.
E2E_UNITS = {
    "setup_s": "s",
    "solve_rel": "ratio",
    "iter_rel_p50": "ratio",
    "peak_rank_mb": "MB",
    "peak_rss_mb": "MB",
    "final_cost_ratio": "ratio",
}

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def fingerprint() -> dict:
    import numpy
    import scipy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in _THREAD_VARS},
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input size: full for measurement, tiny for the smoke test",
    )
    return parser.parse_args(argv)


def _stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker the process executor
    started, and wait for it, so no child outlives the benchmark."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None and getattr(tracker, "_pid", None) is not None:
        stop()


def run(args: argparse.Namespace, workdir: Path):
    from workloads import Checker, make_inputs, measure

    if args.trace == 0:
        inputs = make_inputs(args.workload, args.seed, args.size, workdir)
        checker = Checker(inputs.max_cost_ratio)
        metrics, detail = measure(inputs, args.seconds, checker) or ({}, {})
        units = E2E_UNITS
        checkers = [checker]
    else:
        from traced import trace_workload, unit_of

        metrics, detail, units, checkers = {}, {}, {}, []
        deadline = time.perf_counter() + args.seconds
        for i, name in enumerate(WORKLOADS):
            inputs = make_inputs(name, args.seed, args.size, workdir / name)
            checker = Checker(inputs.max_cost_ratio)
            checkers.append(checker)
            share = (deadline - time.perf_counter()) / (len(WORKLOADS) - i)
            for key, value in trace_workload(inputs, share, checker).items():
                metrics[f"{name}.{key}"] = value
                units[f"{name}.{key}"] = unit_of(key)
    attempted = sum(c.attempted for c in checkers)
    failures = [f for c in checkers for f in c.failures]
    result = {
        "correct": not failures and attempted > 0 and bool(metrics),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    # failed_ratio is 0 on a good run, so it cannot be a contract metric
    # (those are never 0); it is reported here with its base instead.
    failed_ratio = len(failures) / attempted if attempted else 1.0
    return result, dict(
        detail, failed_ratio=failed_ratio, attempted=attempted,
        failures=failures[:20],
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    ambient = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if ambient:
        print(
            f"refusing to run: {', '.join(ambient)} set; REPRO_* variables "
            "change what a workload runs",
            file=sys.stderr,
        )
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root))
    try:
        result, detail = run(args, workdir)
        _stop_resource_tracker()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps({"fingerprint": fingerprint(), "detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
