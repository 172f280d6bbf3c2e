"""Exclusive per-layer time attribution by runtime wrappers.

A :class:`Tracer` patches the public entry points of each ``repro`` layer
(module functions and class methods, listed in :data:`TARGETS`) with
wrappers, in this process only and only while it is installed.  Each
wrapper marks a *site* (``"backend.fft"``, ``"physics.grad"``, ...)
open on its thread while the wrapped call runs.

Attribution is exclusive.  Between two consecutive wrapper events (an
enter or an exit on any thread), the elapsed wall time is split evenly
among the threads that have a site open, and each share goes to that
thread's innermost open site; time when no thread has a site open goes
to ``other``.  The site self-times therefore add up to the traced wall
time exactly, and none is negative, by construction: that sum cannot
show a misattributed interval, so ``traced.py`` also checks the covered
time against a clock the tracer does not own.  With one thread this is
the plain "innermost open span owns the interval" rule.

A call from a site into the same site (``read_batch`` looping over
``read``) is passed through without a second count.  Every site counts
its calls per thread; some also count work (bytes, positions) through
an ``extra`` hook.  The outermost ``api.reconstruct`` call on a thread
marks one operation: the tracer keeps the counter deltas of each
operation so callers can check that the counts repeat exactly.

Worker processes forked while the tracer is installed start with a
fresh tracer state and write their counters to ``dump_dir`` when they
exit; :meth:`Tracer.merge_children` folds them into the totals.  Their
time is not part of the closure, which covers this process's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import multiprocessing.process
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Site whose outermost call delimits one operation.
OP_SITE = "api.reconstruct"

#: Bucket for time no wrapper covers.
OTHER = "other"


def _fft_bytes(args, kwargs, out) -> Tuple[str, float]:
    return "backend.fft.bytes", float(args[1].nbytes + out.nbytes)


def _one_position(args, kwargs, out) -> Tuple[str, float]:
    return "physics.grad.positions", 1.0


def _batch_positions(args, kwargs, out) -> Tuple[str, float]:
    return "physics.grad.positions", float(args[2].shape[0])


def _read_bytes(args, kwargs, out) -> Tuple[str, float]:
    return "data.read.bytes", float(getattr(out, "nbytes", 0))


def _written_bytes(args, kwargs, out) -> Tuple[str, float]:
    path = out if out is not None else args[0]
    return "io.save.bytes", float(os.path.getsize(path))


#: ``(owner, attribute, site, extra)``.  ``owner`` is a module path for
#: module functions (patched in every loaded ``repro`` module that holds
#: the same object), ``module:Class`` for a method, or
#: ``module:Class+`` for a method on the class and all its subclasses.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.backend.numpy_backend:NumpyBackend", "fft2", "backend.fft", _fft_bytes),
    ("repro.backend.numpy_backend:NumpyBackend", "ifft2", "backend.fft", _fft_bytes),
    ("numpy.fft", "fftshift", "fftutils.shift", None),
    ("numpy.fft", "ifftshift", "fftutils.shift", None),
    ("repro.utils.fftutils", "fft2c", "fftutils.dispatch", None),
    ("repro.utils.fftutils", "ifft2c", "fftutils.dispatch", None),
    ("repro.physics.multislice:MultisliceModel", "cost_and_gradient",
     "physics.grad", _one_position),
    ("repro.physics.multislice:MultisliceModel", "cost_and_gradient_batch",
     "physics.grad", _batch_positions),
    ("repro.physics.propagation:FresnelPropagator", "forward",
     "physics.propagate", None),
    ("repro.physics.propagation:FresnelPropagator", "adjoint",
     "physics.propagate", None),
    ("repro.core.engine:NumericEngine", "execute", "core.engine", None),
    ("repro.core.reconstructor:GradientDecompositionReconstructor",
     "decompose", "core.decompose", None),
    ("repro.core.stitching", "stitch", "core.stitch", None),
    ("repro.core.reconstructor:GradientDecompositionReconstructor",
     "reconstruct", "core.loop", None),
    ("repro.parallel.comm:VirtualComm", "send", "parallel.comm", None),
    ("repro.parallel.comm:VirtualComm", "recv", "parallel.comm", None),
    ("repro.parallel.comm:VirtualComm", "allreduce_sum", "parallel.comm", None),
    ("repro.parallel.comm:VirtualComm", "barrier", "parallel.comm", None),
    ("repro.runtime.executor:Executor+", "launch", "runtime.launch", None),
    ("repro.runtime.executor:ExecutionSession+", "step", "runtime.step", None),
    ("repro.runtime.executor:ExecutionSession+", "close", "runtime.close", None),
    ("repro.data.store", "open_store", "data.open", None),
    ("repro.data.store:DiffractionStore+", "read", "data.read", _read_bytes),
    ("repro.data.store:DiffractionStore+", "read_batch", "data.read", _read_bytes),
    ("repro.io.storage", "save_result", "io.save", _written_bytes),
    ("repro.io.storage", "save_dataset", "io.save", _written_bytes),
    ("repro.utils.atomicio", "atomic_write_json", "io.save", _written_bytes),
    ("repro.io.storage", "load_result", "io.load", None),
    ("repro.io.storage", "load_dataset", "io.load", None),
    ("repro.service.service:ReconstructionService", "submit", "service", None),
    ("repro.service.service:ReconstructionService", "result", "service", None),
    ("repro.service.jobs", "create_job", "service", None),
    ("repro.service.jobs", "load_record", "service", None),
    ("repro.service.jobs", "save_record", "service", None),
    ("repro.service.progress:ProgressStream", "__call__", "service", None),
    ("repro.api.reconstruct", "reconstruct", OP_SITE, None),
)

#: Counters whose per-operation values must repeat exactly.
EXACT_COUNTERS = ("backend.fft", "fftutils.shift", "physics.grad")


class _ThreadState:
    __slots__ = ("stack", "counts", "op_start")

    def __init__(self) -> None:
        self.stack: List[str] = []
        self.counts: Dict[str, float] = {}
        self.op_start: Optional[Dict[str, float]] = None


def _subclasses(cls) -> List[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


class Tracer:
    """Collects attribution over one or more :meth:`window` blocks."""

    def __init__(self, dump_dir: Path) -> None:
        self.dump_dir = Path(dump_dir)
        self._patches: List[Tuple[Any, str, Any]] = []
        self._reset_state()
        self.wall_s = 0.0
        self._t0 = 0.0

    def _reset_state(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._open: List[_ThreadState] = []
        self.self_s: Dict[str, float] = {OTHER: 0.0}
        self.op_counts: List[Dict[str, float]] = []
        self.child_counts: Dict[str, float] = {}
        self._running = False
        self._last = time.perf_counter()

    # -- attribution ---------------------------------------------------
    def _charge(self, now: float) -> None:
        dt = now - self._last
        self._last = now
        if not self._open:
            self.self_s[OTHER] += dt
            return
        share = dt / len(self._open)
        for st in self._open:
            site = st.stack[-1]
            self.self_s[site] = self.self_s.get(site, 0.0) + share

    def _state(self) -> Optional[_ThreadState]:
        if not self._running:
            return None
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _enter(self, st: _ThreadState, site: str) -> None:
        with self._lock:
            if self._running:
                self._charge(time.perf_counter())
            if not st.stack:
                self._open.append(st)
            st.stack.append(site)

    def _exit(self, st: _ThreadState) -> None:
        with self._lock:
            if self._running:
                self._charge(time.perf_counter())
            st.stack.pop()
            if not st.stack:
                self._open.remove(st)

    def _wrap(self, fn: Callable, site: str, extra: Optional[Callable]):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            if st is None or (st.stack and st.stack[-1] == site):
                return fn(*args, **kwargs)
            counts = st.counts
            is_op = site == OP_SITE and OP_SITE not in st.stack
            if is_op:
                st.op_start = dict(counts)
            tracer._enter(st, site)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(st)
            counts[site] = counts.get(site, 0.0) + 1
            if extra is not None:
                key, amount = extra(args, kwargs, out)
                counts[key] = counts.get(key, 0.0) + amount
            if is_op:
                start = st.op_start or {}
                delta = {
                    k: v - start.get(k, 0.0) for k, v in counts.items()
                }
                with tracer._lock:
                    tracer.op_counts.append(delta)
            return out

        return wrapper

    # -- install / uninstall -------------------------------------------
    def _patch(self, owner: Any, name: str, new: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def _install(self) -> None:
        for owner, name, site, extra in TARGETS:
            module_name, _, cls_name = owner.partition(":")
            module = importlib.import_module(module_name)
            if not cls_name:
                original = getattr(module, name)
                wrapped = self._wrap(original, site, extra)
                holders = [module] + [
                    m for key, m in list(sys.modules.items())
                    if (key == "repro" or key.startswith("repro."))
                    and m is not module
                    and vars(m).get(name) is original
                ]
                for holder in holders:
                    self._patch(holder, name, wrapped)
                continue
            family = cls_name.endswith("+")
            cls = getattr(module, cls_name.rstrip("+"))
            owners = _subclasses(cls) if family else [cls]
            patched = False
            for klass in owners:
                fn = klass.__dict__.get(name)
                if fn is None or getattr(fn, "__isabstractmethod__", False):
                    continue
                self._patch(klass, name, self._wrap(fn, site, extra))
                patched = True
            if not patched:
                raise AttributeError(f"no concrete {owner}.{name} to trace")
        original_run = multiprocessing.process.BaseProcess.__dict__["run"]
        self._patch(
            multiprocessing.process.BaseProcess,
            "run",
            self._child_run(original_run),
        )

    def _uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _child_run(self, original_run: Callable):
        tracer = self

        @functools.wraps(original_run)
        def run(process_self):
            # Forked child: drop the parent's stacks, counts and locks
            # and count this process's work from zero.
            tracer._reset_state()
            tracer._running = True
            try:
                return original_run(process_self)
            finally:
                tracer._running = False
                path = tracer.dump_dir / f"child-{os.getpid()}.json"
                path.write_text(json.dumps(tracer.counts()))

        return run

    @contextlib.contextmanager
    def window(self) -> Iterator["Tracer"]:
        """Install the wrappers and attribute time until the block ends.
        Windows accumulate: counts, self-times and wall time add up."""
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        self._install()
        try:
            with self._lock:
                self._t0 = self._last = time.perf_counter()
                self._running = True
            yield self
        finally:
            with self._lock:
                now = time.perf_counter()
                self._charge(now)
                self.wall_s += now - self._t0
                self._running = False
            self._uninstall()

    # -- read-out ------------------------------------------------------
    def counts(self) -> Dict[str, float]:
        """Counters summed over this process's threads and the merged
        worker processes."""
        total = dict(self.child_counts)
        with self._lock:
            states = list(self._states)
        for st in states:
            for key, value in st.counts.items():
                total[key] = total.get(key, 0.0) + value
        return total

    def merge_children(self) -> None:
        """Fold the counters of exited worker processes into the totals
        and into the most recent operation."""
        merged: Dict[str, float] = {}
        for path in sorted(self.dump_dir.glob("child-*.json")):
            for key, value in json.loads(path.read_text()).items():
                merged[key] = merged.get(key, 0.0) + value
            path.unlink()
        for key, value in merged.items():
            self.child_counts[key] = self.child_counts.get(key, 0.0) + value
            if self.op_counts:
                last = self.op_counts[-1]
                last[key] = last.get(key, 0.0) + value

    def closure_error(self) -> float:
        """``|sum of self-times - wall|``; zero up to float rounding."""
        return abs(sum(self.self_s.values()) - self.wall_s)
