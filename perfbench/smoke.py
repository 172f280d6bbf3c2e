"""Smoke test of the benchmark command, at tiny input sizes.

Run from the repository root::

    python3 perfbench/smoke.py

It runs every workload once untraced and the traced run once.  It
asserts that the result line has exactly the contract's keys; that
every metric ``BENCHMARK.json`` names is present with its unit, and no
other; that every check passed; that end-to-end values are positive;
that the detail line carries the probe's ``ref_s``, the median solve
and iteration times, the two tail latencies, ``jobs_per_s``,
``job_s_p50`` and the two terms of ``peak_rss_mb``, with their units;
and that each workload's reported self-times plus ``other_s`` add up to
its traced wall time.  It also asserts that the traced run's
independent-clock check fails when the tracer's covered time and the
operations' latencies disagree, that a failed correctness check
makes the command exit 1, that the command refuses to run while a
``REPRO_*`` variable is set, and that a copy holding only the benchmark
(no program sources) fails without printing a result.  Exit code 0
means every assertion held.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
#: Figures the detail line carries beside the metrics, with their units.
DETAIL_UNITS = {
    "ref_s": "s",
    "solve_s": "s",
    "iter_s_p50": "s",
    "iter_s_tail": "s",
    "job_s_tail": "s",
    "jobs_per_s": "1/s",
    "job_s_p50": "s",
    "peak_rss_own_mb": "MB",
    "peak_rss_worker_mb": "MB",
}


def _run(args, cwd=ROOT, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:] + proc.stdout[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS, sorted(result)
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0 and result["attempted"] >= 1, result
    return result


def _assert_metrics(result: dict, expected: dict, positive: bool) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, {
        "missing": sorted(set(expected) - set(got)),
        "extra": sorted(set(got) - set(expected)),
        "unit": sorted(k for k in got if k in expected and got[k] != expected[k]),
    }
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, float) and math.isfinite(value), (name, value)
        assert value >= 0, (name, value)
        if positive:
            assert value > 0, (name, value)


def _assert_closure(result: dict) -> None:
    from traced import SELF_TIME_SITES

    values = {name: m["value"] for name, m in result["metrics"].items()}
    for workload, sites in SELF_TIME_SITES.items():
        parts = [values[f"{workload}.{metric}"] for _, metric in sites]
        total = sum(parts) + values[f"{workload}.other_s"]
        wall = values[f"{workload}.trace.wall_s"]
        assert abs(total - wall) <= 1e-9 + 1e-6 * wall, (workload, total, wall)


def _assert_clock_check_fails() -> None:
    """Half the traced wall time in ``other`` while the operations took
    all of it: the independent-clock check must record a failure."""
    from traced import _independent_clock
    from tracer import OTHER, Tracer
    from workloads import Checker, Op

    tracer = Tracer(ROOT / ".perfbench_tmp" / "unused")
    tracer.wall_s, tracer.self_s = 1.0, {OTHER: 0.5, "api.reconstruct": 0.5}
    checker = Checker(1.0)
    op = Op(latency_s=1.0, iter_s=[], history=[], peak_rank_bytes=0.0, volume=None)
    _independent_clock(tracer, [op], checker)
    assert len(checker.failures) == 1, checker.failures


def _assert_failed_check_exits_nonzero(workload: str, base: list) -> None:
    """Run the command in this process with an accuracy threshold no
    reconstruction meets: every operation must fail its check, and the
    command must say so and exit 1."""
    import run
    import workloads

    sizes = workloads.SIZES["tiny"][workload]
    saved = sizes["max_cost_ratio"]
    sizes["max_cost_ratio"] = 0.0
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", workload, "--trace", "0", *base])
    finally:
        sizes["max_cost_ratio"] = saved
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False, (code, result)
    assert result["failed"] == result["attempted"] >= 1, result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    base = ["--seed", "1", "--seconds", "1", "--size", "tiny"]
    # The in-process checks import the benchmark's modules, which
    # import the program.
    sys.path.insert(0, str(ROOT / "src"))
    from run import WORKLOADS

    # Every workload the command knows, including any BENCHMARK.json
    # does not gate on.
    for workload in WORKLOADS:
        proc = _run(["--workload", workload, "--trace", "0", *base])
        _assert_metrics(_result(proc), e2e, positive=True)
        detail = json.loads(proc.stdout.strip().splitlines()[-2])["detail"]
        for name, unit in DETAIL_UNITS.items():
            entry = detail[name]
            assert entry["unit"] == unit and entry["value"] >= 0, (name, entry)
            if name != "peak_rss_worker_mb" or workload == "alg1_process":
                assert entry["value"] > 0, (name, entry)
        print(f"ok  {workload} end-to-end: {len(e2e)} metrics")
    workload = spec["workloads"][0]["name"]
    result = _result(_run(["--workload", workload, "--trace", "1", *base]))
    _assert_metrics(result, per_layer, positive=False)
    print(f"ok  traced run: {len(per_layer)} per-layer metrics")
    _assert_closure(result)
    print("ok  reported self-times plus other_s add up to trace.wall_s")
    _assert_clock_check_fails()
    print("ok  the independent-clock check fails on a mismatch")

    _assert_failed_check_exits_nonzero(workload, base)
    print("ok  a failed correctness check exits non-zero")

    env = dict(os.environ, REPRO_BATCH_SIZE="4")
    proc = _run(["--workload", workload, "--trace", "0", *base], env=env)
    assert proc.returncode == 2 and not proc.stdout.strip(), proc.stdout
    print("ok  refuses to run with REPRO_* set")

    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="smoke-", dir=ROOT / ".perfbench_tmp"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(
                ROOT / path, bare / path,
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        proc = _run(["--workload", workload, "--trace", "0", *base], cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
        print("ok  fails without program sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            (ROOT / ".perfbench_tmp").rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    return 0


if __name__ == "__main__":
    sys.exit(main())
