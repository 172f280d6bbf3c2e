"""The traced run: per-layer metrics of every workload.

Each workload alternates untraced operations (their mean wall time is
the base of ``trace.overhead_ratio``) with traced ones, run inside
windows of one :class:`~tracer.Tracer`.  Layer metrics are per
operation: the traced totals divided by the number of traced
operations.  Every workload
reports the self-times of the layers it exercises plus ``other_s``, and
those add up to ``trace.wall_s``: ``other_s`` holds the time no wrapper
covers plus any site the workload does not report.

That closure holds by construction (the tracer hands every interval to
some bucket), so checking it only guards the read-out.  The check that
can fail is one against an independent clock: on the two
reconstruction workloads the time the tracer saw a site open must equal
the operations' latencies, which the caller times outside the tracer.
The service workload has no such check: its sites are open on several
threads at once and the tracer splits that time between them.

The ``process`` executor runs ranks in worker processes.  Their counts
come from the tracer's worker dumps; their times come from the
program's own ``telemetry=True`` summary: span wall times summed over
ranks, which include the time a rank waits on the others.  The service
workload also runs its traced jobs with ``telemetry=True``, for the
chunk-cache hit and miss counters.
"""

from __future__ import annotations

import time
from statistics import median
from typing import Dict, List, Tuple

from tracer import EXACT_COUNTERS, OTHER, Tracer
from workloads import (
    Checker,
    Inputs,
    Op,
    ServiceRun,
    serial_config,
    solve,
    solve_loop,
    with_telemetry,
)

#: Self-time sites reported per workload, as ``(site, metric)``.  The
#: ``process`` parent does no numerics itself, so its list is short.
_COMPUTE_SITES = [
    ("backend.fft", "backend.fft_s"),
    ("fftutils.shift", "fftutils.shift_s"),
    ("fftutils.dispatch", "fftutils.dispatch_s"),
    ("physics.grad", "physics.grad_s"),
    ("physics.propagate", "physics.propagate_s"),
    ("core.engine", "core.engine_s"),
    ("parallel.comm", "parallel.comm_s"),
]
_RUN_SITES = [
    ("core.decompose", "core.decompose_s"),
    ("core.stitch", "core.stitch_s"),
    ("core.loop", "core.loop_s"),
    ("runtime.launch", "runtime.launch_s"),
    ("runtime.step", "runtime.step_wait_s"),
    ("runtime.close", "runtime.close_s"),
    ("data.open", "data.open_s"),
    ("data.read", "data.read_s"),
    ("io.load", "io.load_s"),
    ("api.reconstruct", "api.prelude_s"),
]
SELF_TIME_SITES: Dict[str, List[Tuple[str, str]]] = {
    "gd_sync_serial": _COMPUTE_SITES + _RUN_SITES,
    "alg1_process": [s for s in _RUN_SITES if s[0] != "data.read"],
    "service_chunked": _COMPUTE_SITES + _RUN_SITES + [
        ("io.save", "io.save_s"),
        ("service", "service.self_s"),
    ],
}

#: Per-workload counter metrics, ``(metric, counter key)``.
_COUNT_METRICS = [
    ("backend.fft_calls", "backend.fft"),
    ("fftutils.shift_calls", "fftutils.shift"),
    ("physics.grad_calls", "physics.grad"),
    ("physics.propagate_calls", "physics.propagate"),
]


def _exact_counts(tracer: Tracer, checker: Checker) -> None:
    """Every traced operation must make the same number of calls."""
    per_op = [
        tuple(op.get(key, 0.0) for key in EXACT_COUNTERS)
        for op in tracer.op_counts
    ]
    if len(set(per_op)) > 1:
        checker.fail(f"exact counters differ between operations: {per_op}")


#: Allowed gap between the tracer's covered time and the operations'
#: latencies: per operation, the microseconds that ``solve`` and the
#: wrappers' own bookkeeping spend with no site open (around 40 at the
#: smoke test's sizes), plus a relative share for a stall that lands
#: there.
CLOCK_SLACK_S = 1e-4
CLOCK_TOLERANCE = 1e-3


def _closure(tracer: Tracer, checker: Checker) -> None:
    """Self-times are non-negative and sum to the traced wall time (true
    by construction of :class:`~tracer.Tracer`)."""
    sites = tracer.self_s
    if any(v < 0 for v in sites.values()):
        checker.fail(f"negative self-time bucket: {sites}")
    if tracer.closure_error() > 1e-6 * max(tracer.wall_s, 1.0):
        checker.fail(
            f"self-times sum to {sum(sites.values())} s, traced wall "
            f"{tracer.wall_s} s"
        )


def _independent_clock(tracer: Tracer, ops: List[Op], checker: Checker) -> None:
    """The time some site was open must match the summed latencies of
    the traced operations, each timed by :func:`~workloads.solve`
    around its load and reconstruct calls.  Time an operation spends
    outside every wrapper, or a site left open after its call, breaks
    this."""
    covered = tracer.wall_s - tracer.self_s[OTHER]
    timed = sum(op.latency_s for op in ops)
    if abs(covered - timed) > CLOCK_TOLERANCE * timed + CLOCK_SLACK_S * len(ops):
        checker.fail(
            f"tracer covered {covered} s, operations took {timed} s"
        )


def _check_ops(ops: List[Op], checker: Checker) -> None:
    for op in ops:
        checker.check(op)


def _layer_metrics(
    name: str, tracer: Tracer, n_ops: int, ops: List[Op], inputs: Inputs,
    checker: Checker,
) -> Dict[str, float]:
    _closure(tracer, checker)
    _exact_counts(tracer, checker)
    counts = tracer.counts()
    sites = dict(SELF_TIME_SITES[name])
    out: Dict[str, float] = {
        metric: tracer.self_s.get(site, 0.0) / n_ops
        for site, metric in sites.items()
    }
    # Time no wrapper covers, and any site this workload is not expected
    # to reach, is other_s, so the reported self-times always add up to
    # trace.wall_s.
    out["other_s"] = sum(
        v for site, v in tracer.self_s.items() if site not in sites
    ) / n_ops
    out["trace.wall_s"] = tracer.wall_s / n_ops
    for metric, key in _COUNT_METRICS:
        out[metric] = counts.get(key, 0.0) / n_ops
    out["backend.fft_mb"] = counts.get("backend.fft.bytes", 0.0) / n_ops / 1e6
    grad_calls = counts.get("physics.grad", 0.0)
    out["physics.grad_positions_per_call"] = (
        counts.get("physics.grad.positions", 0.0) / grad_calls
    )
    iterations = len(ops[0].history)
    out["parallel.msgs_per_iter"] = ops[0].messages / iterations
    out["parallel.mb_per_iter"] = ops[0].message_bytes / iterations / 1e6
    peak = median(op.peak_rank_bytes for op in ops)
    out["peak_rank_mb"] = peak / 1e6
    out["perfmodel.mem_ratio"] = peak / inputs.model_bytes
    for op in ops:
        if (op.messages, op.message_bytes, op.peak_rank_bytes) != (
            ops[0].messages, ops[0].message_bytes, ops[0].peak_rank_bytes
        ):
            checker.fail("traffic or memory counters differ between operations")
            break
    return out


def trace_reconstruct(
    inputs: Inputs, seconds: float, checker: Checker
) -> Dict[str, float]:
    """Traced pass of ``gd_sync_serial`` or ``alg1_process``: rounds of
    one untraced and one traced operation (for ``alg1_process`` also one
    on the serial executor) until ``seconds`` have passed, at least two
    rounds.  Interleaving keeps drift in machine speed out of the
    overhead and speed-up ratios."""
    name = inputs.name
    process = name == "alg1_process"
    traced_config = with_telemetry(inputs) if process else inputs.config
    tracer = Tracer(inputs.workdir / "trace-dumps")
    serial: List[float] = []
    untraced: List[Op] = []
    ops: List[Op] = []
    if process:
        # The serial executor's digest, checked first, is the one every
        # process run must reproduce.
        checker.check(solve(inputs, serial_config(inputs)))
    solve_loop(inputs, checker, 0.0)  # warm-up
    deadline = time.perf_counter() + seconds
    while len(ops) < 2 or time.perf_counter() < deadline:
        if process:
            reference = solve(inputs, serial_config(inputs))
            serial.append(reference.latency_s)
            checker.check(reference)
        untraced.extend(solve_loop(inputs, checker, 0.0)[0])
        with tracer.window():
            traced, _ = solve_loop(
                inputs, checker, 0.0, config=traced_config,
                after_op=tracer.merge_children, check=False,
            )
        ops.extend(traced)
        _check_ops(traced, checker)
    base = sum(op.latency_s for op in untraced) / len(untraced)
    _independent_clock(tracer, ops, checker)
    out = _layer_metrics(name, tracer, len(ops), ops, inputs, checker)
    out["trace.overhead_ratio"] = out["trace.wall_s"] / base
    if process:
        out.update(_rank_metrics(ops, inputs))
        out["runtime.speedup_vs_serial"] = median(serial) / median(
            op.latency_s for op in untraced
        )
    return out


def _rank_metrics(ops: List[Op], inputs: Inputs) -> Dict[str, float]:
    """In-worker numbers from the program's telemetry summary, per
    operation.  Rank buckets are span wall times summed over ranks;
    halo and collective spans include time blocked on other ranks.
    ``busy_ratio`` is the gradient spans (FFTs included) over workers
    times the parent's collect time."""
    n = len(ops)

    def total(getter) -> float:
        return sum(getter(op.telemetry) for op in ops) / n

    fft = total(lambda t: t["breakdown"]["fft"])
    gradient = total(lambda t: t["breakdown"]["gradient"])
    collect = total(lambda t: t["counters"]["runtime.collect.seconds"])
    workers = inputs.config.runtime_workers
    return {
        "runtime.collect_s": collect,
        "runtime.rank_compute_wall_s": gradient - fft,
        "runtime.rank_fft_wall_s": fft,
        "runtime.rank_halo_wall_s": total(lambda t: t["breakdown"]["halo"]),
        "runtime.rank_collective_wall_s": total(
            lambda t: t["breakdown"]["collective"]
        ),
        "runtime.busy_ratio": gradient / (workers * collect),
    }


def trace_service(
    inputs: Inputs, seconds: float, checker: Checker
) -> Dict[str, float]:
    """Traced pass of ``service_chunked``: rounds of one untraced and one
    traced closed loop (two jobs per client each) on one service until
    ``seconds`` have passed.  The JobRecord phases come from the
    untraced jobs; the traced jobs run with ``telemetry=True``."""
    tracer = Tracer(inputs.workdir / "trace-dumps")
    untraced: List[Op] = []
    ops: List[Op] = []
    untraced_wall = 0.0
    run = ServiceRun(inputs, inputs.workdir / "trace-service-root")
    try:
        run.closed_loop(checker, 0.0)  # warm-up
        deadline = time.perf_counter() + seconds
        while not ops or time.perf_counter() < deadline:
            jobs, start = run.closed_loop(checker, 0.0, min_jobs_per_client=2)
            untraced_wall += max(op.end for op in jobs) - start
            untraced.extend(jobs)
            with tracer.window():
                traced, _ = run.closed_loop(
                    checker, 0.0, min_jobs_per_client=2,
                    config=with_telemetry(inputs), check=False,
                )
            ops.extend(traced)
            _check_ops(traced, checker)
    finally:
        run.close()
    n_ops = len(ops)
    out = _layer_metrics(inputs.name, tracer, n_ops, ops, inputs, checker)
    out["trace.overhead_ratio"] = out["trace.wall_s"] / (
        untraced_wall / len(untraced)
    )
    counts = tracer.counts()
    out["data.read_calls"] = counts.get("data.read", 0.0) / n_ops
    out["data.read_mb"] = counts.get("data.read.bytes", 0.0) / n_ops / 1e6
    hits = sum(op.telemetry["counters"].get("store.cache.hits", 0.0) for op in ops)
    misses = sum(
        op.telemetry["counters"].get("store.cache.misses", 0.0) for op in ops
    )
    out["data.cache_hit_ratio"] = hits / (hits + misses)
    out["io.save_calls"] = counts.get("io.save", 0.0) / n_ops
    out["io.written_mb"] = counts.get("io.save.bytes", 0.0) / n_ops / 1e6
    out["service.submit_s"] = median(op.submit_s for op in untraced)
    out["service.queue_wait_s_p50"] = median(op.queue_wait_s for op in untraced)
    out["service.run_s_p50"] = median(op.run_s for op in untraced)
    out["service.settle_s_p50"] = median(op.settle_s for op in untraced)
    return out


def trace_workload(
    inputs: Inputs, seconds: float, checker: Checker
) -> Dict[str, float]:
    if inputs.name == "service_chunked":
        return trace_service(inputs, seconds, checker)
    return trace_reconstruct(inputs, seconds, checker)


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith(("_s", "_s_p50")):
        return "s"
    if metric.endswith(("_mb", "mb_per_iter")):
        return "MB"
    if metric.endswith(("_calls", "_per_iter", "_per_call")):
        return "count"
    return "ratio"
