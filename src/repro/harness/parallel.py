"""Process-pool campaign executor: fan case matrices out across cores.

The checking, chaos, and bench subsystems all drive the simulator
through embarrassingly-parallel case matrices, and every case is a pure
function of a small replayable name (``[fault:]program:config:policy:seed``,
a bench cell id).  This module turns such a campaign into a list of
small picklable :class:`CaseSpec` tuples and runs them across ``jobs``
worker processes:

* **Determinism.**  Results are merged in enumeration order, so the
  merged list is identical to the serial run's no matter how the cases
  were sharded or in what order workers finished.  Parallelism never
  changes a simulated cycle — each worker runs the same pure function
  the serial loop would have.
* **Isolation.**  A case that raises is classified by
  ``failure_result(spec, message)`` instead of aborting the campaign; a
  case that kills its worker outright (``os._exit``, a segfault) is
  detected by exit-code watch and the worker is respawned; a case that
  exceeds ``timeout`` seconds is interrupted by an in-worker alarm, and
  if it wedges the interpreter hard enough to ignore even that, the
  parent kills the worker after a grace period.
* **Ordered progress.**  The ``report`` callback observes finished
  results in enumeration order (buffered until their turn), so serial
  and parallel campaigns stream identical progress.

Every case names its runner as ``"module:function"``, and workers
resolve it by that name: there is no channel for closures or other
unpicklable context, so specs stay tiny and a campaign runs the same
under the ``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import importlib
import multiprocessing
import pickle
import queue
import signal
import threading
import time

#: Seconds between parent watchdog polls while no result is ready.
_POLL_S = 0.05

#: Placeholder for a result slot not yet filled (results may be None).
_UNSET = object()

#: Gen-0 GC threshold inside :func:`batched_gc`, which every worker
#: runs under.  Campaign cases allocate millions of short-lived
#: containers over a large live heap; at CPython's default of 700 the
#: cyclic collector keeps re-walking that heap.
GC_GEN0_THRESHOLD = 100_000


@contextlib.contextmanager
def batched_gc():
    """Run the block (or decorated function) with fewer, larger GC
    passes: a gen-0 threshold of at least :data:`GC_GEN0_THRESHOLD`,
    with the previous thresholds restored however the block ends."""
    saved = gc.get_threshold()
    gc.set_threshold(max(saved[0], GC_GEN0_THRESHOLD), *saved[1:])
    try:
        yield
    finally:
        gc.set_threshold(*saved)


@dataclasses.dataclass(frozen=True)
class CaseSpec:
    """One campaign case: small, picklable, replayable by name.

    ``runner`` names a module-level callable as ``"module:function"``,
    resolved inside the worker; ``args``/``kwargs`` must be picklable
    (``kwargs`` is a tuple of ``(key, value)`` pairs so the spec itself
    stays hashable).  ``name`` is the case's replayable name, used only
    for failure reporting.
    """

    runner: str
    name: str
    args: tuple = ()
    kwargs: tuple = ()


@dataclasses.dataclass
class CampaignFailure:
    """Default failure record when no domain ``failure_result`` is given."""

    name: str
    message: str


class CaseTimeout(Exception):
    """A case exceeded the campaign's per-case time budget."""


def resolve_runner(path):
    """Resolve a ``"module:function"`` runner name to the callable."""
    module_name, sep, func_name = path.partition(":")
    if not sep or not func_name:
        raise ValueError(f"runner {path!r} is not 'module:function'")
    module = importlib.import_module(module_name)
    return getattr(module, func_name)


def run_spec(spec):
    """Run one spec in-process and return its result."""
    fn = resolve_runner(spec.runner)
    return fn(*spec.args, **dict(spec.kwargs))


def _raise_timeout(signum, frame):
    raise CaseTimeout()


class _time_limit:
    """SIGALRM-based time limit; a no-op off the main thread or when
    ``seconds`` is falsy (the simulator is pure Python, so the alarm
    interrupts even a livelocked case)."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.active = bool(seconds) and (
            threading.current_thread() is threading.main_thread())

    def __enter__(self):
        if self.active:
            self.old = signal.signal(signal.SIGALRM, _raise_timeout)
            signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self.old)
        return False


def _describe(exc):
    return f"{type(exc).__name__}: {exc}"


def call_guarded(fn, args, kwargs, timeout, on_failure):
    """``fn(*args, **kwargs)`` in-process with the classification the
    parallel path applies: a timeout or an exception becomes
    ``on_failure(message)`` at the campaign boundary instead of sinking
    the matrix."""
    try:
        with _time_limit(timeout):
            return fn(*args, **kwargs)
    except CaseTimeout:
        return on_failure(f"timeout after {timeout:g}s")
    except Exception as exc:
        return on_failure(_describe(exc))


def _run_guarded(spec, timeout, failure_result):
    """Serial execution of one spec (see :func:`call_guarded`)."""
    return call_guarded(run_spec, (spec,), {}, timeout,
                        lambda message: failure_result(spec, message))


@batched_gc()
def _worker_main(task_queue, result_queue):
    """Worker loop: pull ``(index, spec, timeout)`` tasks, push
    ``(index, pickled outcome)`` results.  Outcomes are pickled in the
    worker so an unpicklable result surfaces as a classified failure
    rather than wedging the queue's feeder thread."""
    while True:
        task = task_queue.get()
        if task is None:
            return
        index, spec, timeout = task
        try:
            with _time_limit(timeout):
                outcome = ("ok", run_spec(spec))
        except CaseTimeout:
            outcome = ("fail", f"timeout after {timeout:g}s")
        except BaseException as exc:
            outcome = ("fail", _describe(exc))
        try:
            blob = pickle.dumps(outcome)
        except Exception as exc:
            blob = pickle.dumps(
                ("fail", f"result not picklable ({_describe(exc)})"))
        result_queue.put((index, blob))


class _Worker:
    """One pool worker with a private task queue (so the parent always
    knows which case each worker holds — exact crash attribution)."""

    def __init__(self, ctx, result_queue):
        self.task_queue = ctx.Queue()
        self.process = ctx.Process(
            target=_worker_main, args=(self.task_queue, result_queue),
            daemon=True)
        self.process.start()
        self.index = None      # case index in flight, if any
        self.started = None    # monotonic time the case was assigned

    def assign(self, index, spec, timeout):
        self.index = index
        self.started = time.monotonic()
        self.task_queue.put((index, spec, timeout))

    def alive(self):
        return self.process.is_alive()

    def stop(self):
        try:
            self.task_queue.put(None)
        except Exception:
            pass

    def kill(self):
        if self.process.is_alive():
            self.process.kill()
        self.process.join()


def _context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def run_campaign(specs, jobs=1, timeout=None, report=None,
                 failure_result=None, grace=5.0):
    """Run a campaign's specs and return results in enumeration order.

    ``jobs`` <= 1 runs serially in-process (same classification, no
    subprocesses).  ``timeout`` is the per-case budget in seconds;
    ``grace`` is how long past it the parent waits before killing a
    worker that ignored its alarm.  ``failure_result(spec, message)``
    builds the domain's failure record (default
    :class:`CampaignFailure`); ``report`` sees each result in
    enumeration order.
    """
    specs = list(specs)
    if failure_result is None:
        failure_result = lambda spec, message: CampaignFailure(  # noqa: E731
            spec.name, message)
    if jobs <= 1 or len(specs) <= 1:
        results = []
        for spec in specs:
            result = _run_guarded(spec, timeout, failure_result)
            results.append(result)
            if report is not None:
                report(result)
        return results
    return _run_workers(specs, min(jobs, len(specs)), _context(), timeout,
                        report, failure_result, grace)


def _run_workers(specs, jobs, ctx, timeout, report, failure_result, grace):
    """:func:`run_campaign`'s parallel path: ``jobs`` workers drain the
    specs in enumeration order, each taking the next spec when it goes
    idle, and are stopped when the campaign ends however it ends."""
    result_queue = ctx.Queue()
    workers = [_Worker(ctx, result_queue) for _ in range(jobs)]
    results = [_UNSET] * len(specs)
    n_done = 0
    n_sent = 0
    emitted = 0
    idle = list(workers)

    def finish(index, result):
        nonlocal n_done, emitted
        if results[index] is not _UNSET:
            return  # stale message from a worker already written off
        results[index] = result
        n_done += 1
        if report is not None:
            while emitted < len(results) and results[emitted] is not _UNSET:
                report(results[emitted])
                emitted += 1

    def respawn(worker):
        fresh = _Worker(ctx, result_queue)
        workers[workers.index(worker)] = fresh
        idle.append(fresh)

    try:
        while n_done < len(specs):
            while idle and n_sent < len(specs):
                worker = idle.pop()
                if not worker.alive():   # died idle; replace and retry
                    respawn(worker)
                    continue
                worker.assign(n_sent, specs[n_sent], timeout)
                n_sent += 1
            try:
                index, blob = result_queue.get(timeout=_POLL_S)
            except queue.Empty:
                now = time.monotonic()
                for worker in list(workers):
                    if worker.index is None:
                        continue
                    if not worker.alive():
                        code = worker.process.exitcode
                        finish(worker.index, failure_result(
                            specs[worker.index],
                            f"worker crashed (exit code {code})"))
                        respawn(worker)
                    elif timeout and now - worker.started > timeout + grace:
                        worker.kill()
                        finish(worker.index, failure_result(
                            specs[worker.index],
                            f"timeout after {timeout:g}s (worker killed)"))
                        respawn(worker)
                continue
            for worker in workers:
                if worker.index == index:
                    worker.index = None
                    idle.append(worker)
                    break
            status, value = pickle.loads(blob)
            if status == "ok":
                finish(index, value)
            else:
                finish(index, failure_result(specs[index], value))
        return results
    finally:
        for worker in workers:
            worker.stop()
        deadline = time.monotonic() + 2.0
        for worker in workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.kill()
        result_queue.close()
