"""The three benchmark workloads: inputs, operations and checks.

Every workload generates its dataset with ``scaled_pbtio3_spec`` and
``simulate_dataset`` from the run's seed and writes it into the run's
scratch directory; the program only ever sees that file (and, for the
service workload, a chunked store written next to it).  All of them run
on ``backend="numpy"`` at ``dtype="complex128"``.

* ``gd_sync_serial`` — gradient decomposition with the exact
  synchronous gradient, 4 ranks on a 2x2 mesh, ``serial`` executor,
  in-memory store, default ``batch_size``.
* ``alg1_process`` — the paper's Algorithm 1 (``mode="alg1"``, APPP
  planner, probe refinement), 4 ranks on the ``process`` executor with
  2 workers.
* ``service_chunked`` — a closed loop of 2 client threads against one
  ``ReconstructionService(workers=2, checkpoint_every=1)``; every job
  names the dataset archive and reads its frames from a
  ``ChunkedNpzStore``.

One *operation* is one ``repro.reconstruct`` call (load the dataset,
reconstruct) or one service job (submit, wait, fetch the archive).
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import shutil
import statistics
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro
import repro.io.storage
from repro.core.decomposition import decompose_gradient
from repro.data import write_store
from repro.parallel.topology import MeshLayout
from repro.perfmodel.memory_model import MemoryModel
from repro.service.jobs import JobState


#: Geometry and iteration budget per workload, at two sizes: ``full``
#: for measurement and ``tiny`` for the smoke test.  ``max_cost_ratio``
#: is the accuracy check: last sweep cost over first, after the budget.
SIZES: Dict[str, Dict[str, dict]] = {
    "full": {
        "gd_sync_serial": dict(
            scan_grid=(16, 16), detector_px=32, n_slices=4,
            iterations=4, max_cost_ratio=0.25,
        ),
        "alg1_process": dict(
            scan_grid=(10, 10), detector_px=64, n_slices=3,
            iterations=4, max_cost_ratio=0.95,
        ),
        "service_chunked": dict(
            scan_grid=(10, 10), detector_px=24, n_slices=2,
            iterations=3, max_cost_ratio=0.5,
        ),
    },
    "tiny": {
        "gd_sync_serial": dict(
            scan_grid=(4, 4), detector_px=16, n_slices=2,
            iterations=2, max_cost_ratio=1.0,
        ),
        "alg1_process": dict(
            scan_grid=(4, 4), detector_px=16, n_slices=2,
            iterations=2, max_cost_ratio=1.0,
        ),
        "service_chunked": dict(
            scan_grid=(4, 4), detector_px=16, n_slices=2,
            iterations=2, max_cost_ratio=1.0,
        ),
    },
}

#: The service the workload drives.
SERVICE_PARAMS = dict(workers=2, checkpoint_every=1)
#: Service constructions timed per run for ``setup_s``.
SERVICE_SETUP_SAMPLES = 25
#: Client threads in the service closed loop.
SERVICE_CLIENTS = 2
#: Seconds any single wait on the program may take before it counts as
#: a failed operation.
OP_TIMEOUT_S = 120.0


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    name: str
    dataset_path: Path
    config: repro.ReconstructionConfig
    max_cost_ratio: float
    #: ``MemoryModel.mean_bytes`` for this geometry at compute precision.
    model_bytes: float
    workdir: Path


def make_inputs(name: str, seed: int, size: str, workdir: Path) -> Inputs:
    """Simulate the workload's dataset from ``seed`` and write it (and,
    for the service workload, its chunked store) under ``workdir``."""
    geo = dict(SIZES[size][name])
    iterations = geo.pop("iterations")
    max_cost_ratio = geo.pop("max_cost_ratio")
    spec = repro.scaled_pbtio3_spec(**geo)
    dataset = repro.simulate_dataset(spec, seed=seed)
    workdir.mkdir(parents=True, exist_ok=True)
    dataset_path = workdir / f"{name}.npz"
    repro.io.storage.save_dataset(dataset_path, dataset)
    params = {
        "n_ranks": 4,
        "mesh": [2, 2],
        "iterations": iterations,
        "lr": repro.suggest_lr(dataset),
    }
    extra: dict = {}
    if name == "gd_sync_serial":
        params["mode"] = "synchronous"
        extra["executor"] = "serial"
    elif name == "alg1_process":
        params.update(mode="alg1", planner="appp", refine_probe=True)
        extra.update(executor="process", runtime_workers=2)
    else:
        params["mode"] = "synchronous"
        store_path = workdir / f"{name}.store.npz"
        write_store(store_path, dataset)
        extra.update(executor="serial", data_source=str(store_path))
    config = repro.ReconstructionConfig(
        "gd", params, backend="numpy", dtype="complex128", **extra
    )
    decomp = decompose_gradient(
        dataset.scan, dataset.object_shape, mesh=MeshLayout(2, 2)
    )
    model = MemoryModel(spec, precision="complex128", include_fixed=False)
    return Inputs(
        name=name,
        dataset_path=dataset_path,
        config=config,
        max_cost_ratio=max_cost_ratio,
        model_bytes=model.mean_bytes(decomp),
        workdir=workdir,
    )


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def volume_digest(volume: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(volume).tobytes()).hexdigest()


class Checker:
    """Counts operations and their failed checks.

    An operation fails when its history holds a non-finite value, when
    its last-over-first cost ratio exceeds the workload's threshold, or
    when its volume digest differs from the first digest the checker
    saw (every operation of a run reconstructs the same inputs, so
    every digest must match).  :meth:`fail` records an operation that
    raised, or a run-level check that did not hold.
    """

    def __init__(self, max_cost_ratio: float) -> None:
        self.max_cost_ratio = max_cost_ratio
        self.digest: Optional[str] = None
        self.attempted = 0
        self.failures: List[str] = []
        self._lock = threading.Lock()

    def fail(self, reason: str) -> None:
        with self._lock:
            self.attempted += 1
            self.failures.append(reason)

    def check(self, op: "Op") -> None:
        """Check one operation, then drop its volume, so a run's memory
        does not grow with its length."""
        history = [float(c) for c in op.history]
        digest = volume_digest(op.volume)
        op.volume = None
        with self._lock:
            self.attempted += 1
            if self.digest is None:
                self.digest = digest
            reason = None
            if not history or not all(math.isfinite(c) for c in history):
                reason = f"non-finite cost history {history}"
            elif history[-1] / history[0] > self.max_cost_ratio:
                reason = (
                    f"final_cost_ratio {history[-1] / history[0]:.4g} > "
                    f"{self.max_cost_ratio}"
                )
            elif digest != self.digest:
                reason = f"volume digest {digest[:12]} != {self.digest[:12]}"
            if reason is not None:
                self.failures.append(reason)


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------
@dataclass
class Op:
    """One finished operation, as the caller saw it."""

    latency_s: float
    iter_s: List[float]
    history: List[float]
    peak_rank_bytes: float
    volume: Optional[np.ndarray] = field(repr=False)
    setup_s: float = 0.0
    messages: int = 0
    message_bytes: int = 0
    #: Service jobs only: client submit call, and JobRecord phases.
    submit_s: float = 0.0
    queue_wait_s: float = 0.0
    run_s: float = 0.0
    settle_s: float = 0.0
    telemetry: Optional[dict] = None
    end: float = 0.0


def _iteration_times(elapsed: List[float]) -> List[float]:
    return [b - a for a, b in zip([0.0] + elapsed[:-1], elapsed)]


class RefProbe:
    """A fixed piece of numpy work timed between operations, the base of
    the ``*_rel`` metrics.

    On a shared host the speed of a CPU swings up to 2x over seconds to
    minutes, and a whole 60 s run can sit in a slow phase: the median
    solve time of ``gd_sync_serial`` spread 0.21-0.41 of its median over
    sets of runs of the same code.  The probe does the same kind of work
    as the workloads (2-D FFTs of small complex128 windows and an
    elementwise product), on a constant input, so an operation's time
    divided by the probe times around it no longer depends on the host's
    speed at that moment (op latency and probe time correlate 0.82 over
    one run on a 2-vCPU KVM guest; the spread of the divided median fell to 0.02-0.04).
    """

    _LOOPS = 100

    def __init__(self) -> None:
        self._x = np.exp(1j * np.arange(8 * 32 * 32.0)).reshape(8, 32, 32)
        #: ``(start, end)`` perf_counter stamps of every sample.
        self.samples: List[Tuple[float, float]] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        for _ in range(self._LOOPS):
            np.fft.ifft2(np.fft.fft2(self._x) * 2.0)
        self.samples.append((t0, time.perf_counter()))

    def around(self, start: float, end: float) -> float:
        """Mean duration of the last sample that ended by ``start`` and
        the first that began at or after ``end`` (the one of them that
        exists, if only one does)."""
        before = [b - a for a, b in self.samples if b <= start]
        after = [b - a for a, b in self.samples if a >= end]
        near = before[-1:] + after[:1]
        return sum(near) / len(near)

    def median_s(self) -> float:
        return statistics.median(b - a for a, b in self.samples)


def solve(inputs: Inputs, config: Optional[repro.ReconstructionConfig] = None) -> Op:
    """One ``repro.reconstruct`` operation: load the dataset archive,
    reconstruct, return the result.

    Set-up time is the wall time from the start of the load to the
    first iteration event, minus that iteration's own duration (the
    event clock starts once the executor has launched).
    """
    config = config or inputs.config
    stamps: List[Tuple[float, float]] = []

    def observe(event) -> None:
        stamps.append((time.perf_counter(), event.elapsed_s))

    t0 = time.perf_counter()
    dataset = repro.io.storage.load_dataset(inputs.dataset_path)
    result = repro.reconstruct(dataset, config, observers=[observe])
    t1 = time.perf_counter()
    elapsed = [e for _, e in stamps]
    return Op(
        latency_s=t1 - t0,
        setup_s=stamps[0][0] - t0 - stamps[0][1],
        iter_s=_iteration_times(elapsed),
        history=list(result.history),
        peak_rank_bytes=result.peak_memory_mean,
        volume=result.volume,
        messages=result.messages,
        message_bytes=result.message_bytes,
        telemetry=result.telemetry,
        end=t1,
    )


def solve_loop(
    inputs: Inputs,
    checker: Checker,
    seconds: float,
    config: Optional[repro.ReconstructionConfig] = None,
    after_op: Optional[Callable[[], None]] = None,
    check: bool = True,
    probe: Optional[RefProbe] = None,
) -> Tuple[List[Op], float]:
    """Closed loop of :func:`solve` calls until ``seconds`` have passed
    (and at least one ran); returns the operations and the loop's start
    time.  ``check=False`` leaves the checks to the caller
    (so they stay out of a traced window).  A ``probe`` is sampled
    before the first operation and after each one."""
    ops: List[Op] = []
    start = time.perf_counter()
    deadline = start + seconds
    if probe is not None:
        probe.sample()
    while not ops or time.perf_counter() < deadline:
        try:
            op = solve(inputs, config)
        except Exception as exc:  # noqa: BLE001 - counted, reported
            traceback.print_exc()
            checker.fail(f"{type(exc).__name__}: {exc}")
            break
        if after_op is not None:
            after_op()
        if check:
            checker.check(op)
        ops.append(op)
        if probe is not None:
            probe.sample()
    return ops, start


class ServiceRun:
    """One service over a fresh job root, driven by closed-loop clients."""

    def __init__(self, inputs: Inputs, root: Path) -> None:
        shutil.rmtree(root, ignore_errors=True)
        self.root = root
        self.service = repro.ReconstructionService(root, **SERVICE_PARAMS)
        self.inputs = inputs

    def job(self, config: repro.ReconstructionConfig) -> Op:
        t0 = time.perf_counter()
        handle = self.service.submit(str(self.inputs.dataset_path), config)
        t_submitted = time.perf_counter()
        state = handle.wait(timeout=OP_TIMEOUT_S)
        if state != JobState.DONE:
            raise RuntimeError(
                f"job {handle.job_id} settled {state}: "
                f"{handle.record().error}"
            )
        archive = handle.result()
        t1 = time.perf_counter()
        returned = time.time()  # JobRecord stamps are time.time()
        record = handle.record()
        stream = handle.progress()
        elapsed = [u.elapsed_s for u in stream.history()] if stream else []
        return Op(
            latency_s=t1 - t0,
            iter_s=_iteration_times(elapsed),
            history=list(archive.history),
            peak_rank_bytes=float(np.mean(archive.peak_memory_per_rank)),
            volume=archive.volume,
            messages=archive.messages,
            message_bytes=archive.message_bytes,
            submit_s=t_submitted - t0,
            queue_wait_s=record.started_at - record.submitted_at,
            run_s=record.finished_at - record.started_at,
            settle_s=returned - record.finished_at,
            telemetry=archive.telemetry,
            end=t1,
        )

    def closed_loop(
        self,
        checker: Checker,
        seconds: float,
        min_jobs_per_client: int = 1,
        config: Optional[repro.ReconstructionConfig] = None,
        check: bool = True,
        probe: Optional[RefProbe] = None,
    ) -> Tuple[List[Op], float]:
        """Each client submits, waits, fetches, and submits again until
        ``seconds`` have passed; returns the jobs and the start time.
        A ``probe`` is sampled before the clients start and after they
        end, not between jobs, where it would take CPU from the service
        and time the interpreter lock more than the host."""
        config = config or self.inputs.config
        ops: List[Op] = []
        lock = threading.Lock()
        start = time.perf_counter()
        deadline = start + seconds

        def client() -> None:
            done = 0
            while done < min_jobs_per_client or time.perf_counter() < deadline:
                try:
                    op = self.job(config)
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    traceback.print_exc()
                    checker.fail(f"{type(exc).__name__}: {exc}")
                    return
                if check:
                    checker.check(op)
                with lock:
                    ops.append(op)
                done += 1

        threads = [
            threading.Thread(target=client, name=f"perfbench-client-{i}")
            for i in range(SERVICE_CLIENTS)
        ]
        if probe is not None:
            probe.sample()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if probe is not None:
            probe.sample()
        return ops, start

    def close(self) -> None:
        self.service.close(timeout=OP_TIMEOUT_S)


def service_setup_samples(root: Path, n: int) -> List[float]:
    """Construction time of ``n`` services over ``root``: root lock,
    recovery scan of the jobs it holds, worker-thread start."""
    samples = []
    for _ in range(n):
        t0 = time.perf_counter()
        service = repro.ReconstructionService(root, **SERVICE_PARAMS)
        samples.append(time.perf_counter() - t0)
        service.close(timeout=OP_TIMEOUT_S)
    return samples


# ----------------------------------------------------------------------
# End-to-end metrics
# ----------------------------------------------------------------------
def tail(samples: List[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n)`` of the highest percentile that has at
    least ten samples beyond it (the maximum when there are fewer than
    eleven samples)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n, n


def peak_rss() -> Tuple[float, float]:
    """``(own, worker)`` peak resident set in MB: this process's lifetime
    peak, and the peak of the largest child it has reaped (0 without
    children)."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own * 1024 / 1e6, children * 1024 / 1e6


def end_to_end(
    ops: List[Op],
    start: float,
    setup_samples: List[float],
    solve_s: List[float],
    probe: RefProbe,
) -> Tuple[Dict[str, float], Dict[str, object]]:
    """The end-to-end metrics of one measured window, and the detail
    behind them: sample counts, the median and tail times in seconds,
    throughput, the reference probe's median time, and the two terms of
    ``peak_rss_mb``.  ``solve_s`` holds one time per operation.

    ``solve_rel`` and ``iter_rel_p50`` are the medians of each
    operation's solve time, and of each of its iteration times, divided
    by the mean of the :class:`RefProbe` samples just before and just
    after it.  They are gated in place of the medians in seconds
    (``solve_s`` and ``iter_s_p50`` in the detail), which follow
    the host's speed: over ten runs of the same code the median solve
    time of ``gd_sync_serial`` spread up to 0.41 of its median.
    ``setup_s`` stays in seconds.

    ``peak_rss_mb`` is read when the measured loop ends, before any
    other work.  It is this process's lifetime peak RSS (set by the
    measured loop or, if higher, by the dataset simulation before it)
    plus the peak RSS of the largest worker process reaped so far (0
    without workers).  So it is not the machine's resident total: a
    forked worker's RSS includes the pages it inherited from this
    process, which the sum counts twice, and only the largest of the
    workers is counted.  Both terms are in the detail.

    ``jobs_per_s`` and ``job_s_p50`` go into the detail, not the
    metrics: the reconstruction workloads run one reconstruction at a
    time, so there they restate the solve time.

    The tails are reported in the detail, not as metrics: on a shared
    two-CPU host one neighbour's burst moves the highest percentile
    with ten samples beyond it by 50-100% for a whole run (iteration
    tails of ``alg1_process`` spread 0.61 of their median over ten
    runs), so no bound of at most 25% holds on them."""
    own_mb, worker_mb = peak_rss()
    iters = [t for op in ops for t in op.iter_s]
    latencies = [op.latency_s for op in ops]
    refs = [probe.around(op.end - op.latency_s, op.end) for op in ops]
    iter_tail, iter_pct, n_iter = tail(iters)
    job_tail, job_pct, n_job = tail(latencies)
    first = ops[0].history
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "solve_rel": statistics.median(t / r for t, r in zip(solve_s, refs)),
        "iter_rel_p50": statistics.median(
            t / r for op, r in zip(ops, refs) for t in op.iter_s
        ),
        "peak_rank_mb": statistics.median(op.peak_rank_bytes for op in ops) / 1e6,
        "peak_rss_mb": own_mb + worker_mb,
        "final_cost_ratio": first[-1] / first[0],
    }
    detail = {
        "operations": len(ops),
        "setup_samples": len(setup_samples),
        "probe_samples": len(probe.samples),
        "ref_s": {"value": probe.median_s(), "unit": "s"},
        "solve_s": {"value": statistics.median(solve_s), "unit": "s"},
        "iter_s_p50": {"value": statistics.median(iters), "unit": "s"},
        "jobs_per_s": {
            "value": len(ops) / (max(op.end for op in ops) - start),
            "unit": "1/s",
        },
        "job_s_p50": {"value": statistics.median(latencies), "unit": "s"},
        "peak_rss_own_mb": {"value": own_mb, "unit": "MB"},
        "peak_rss_worker_mb": {"value": worker_mb, "unit": "MB"},
        "iter_s_tail": {
            "value": iter_tail, "unit": "s",
            "percentile": round(iter_pct, 2), "samples": n_iter,
        },
        "job_s_tail": {
            "value": job_tail, "unit": "s",
            "percentile": round(job_pct, 2), "samples": n_job,
        },
    }
    return metrics, detail


def measure(inputs: Inputs, seconds: float, checker: Checker):
    """The untraced end-to-end run of one workload: warm up, then run
    the closed loop for ``seconds``.

    The service's ``setup_s`` times constructions over the job root the
    closed loop left, so the recovery scan reads the records of every
    job the run settled.  ``alg1_process`` then solves once on the
    ``serial`` executor, after the metrics are read so that this
    in-process solve of all four ranks does not set ``peak_rss_mb``:
    every process result must match its digest bit for bit."""
    probe = RefProbe()
    probe.sample()  # warm-up
    probe.samples.clear()
    if inputs.name == "service_chunked":
        run = ServiceRun(inputs, inputs.workdir / "service-root")
        try:
            run.closed_loop(checker, 0.0)  # warm-up: one job per client
            ops, start = run.closed_loop(checker, seconds, probe=probe)
        finally:
            run.close()
        if not ops:
            return None
        setup = service_setup_samples(run.root, SERVICE_SETUP_SAMPLES)
        return end_to_end(ops, start, setup, [op.run_s for op in ops], probe)
    solve_loop(inputs, checker, 0.0)  # warm-up
    ops, start = solve_loop(inputs, checker, seconds, probe=probe)
    if not ops:
        return None
    measured = end_to_end(
        ops, start, [op.setup_s for op in ops], [op.latency_s for op in ops],
        probe,
    )
    if inputs.name == "alg1_process":
        checker.check(solve(inputs, serial_config(inputs)))
    return measured


def serial_config(inputs: Inputs) -> repro.ReconstructionConfig:
    """The workload's config on the in-process ``serial`` executor."""
    return dataclasses.replace(
        inputs.config, executor="serial", runtime_workers=None
    )


def with_telemetry(inputs: Inputs) -> repro.ReconstructionConfig:
    """The workload's config with the program's own telemetry on."""
    return dataclasses.replace(inputs.config, telemetry=True)
