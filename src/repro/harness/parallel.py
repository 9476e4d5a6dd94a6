"""Process-pool campaign executor: fan case matrices out across cores.

The checking, chaos, and bench subsystems all drive the simulator
through embarrassingly-parallel case matrices, and every case is a pure
function of a small replayable name (``program:config:policy:seed``,
``fault:program:config:seed``, a bench cell id).  This module turns such
a campaign into a list of small picklable :class:`CaseSpec` tuples and
runs them across ``jobs`` worker processes:

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

Workers resolve each spec's runner by its ``"module:function"`` name, so
specs stay tiny and work under both ``fork`` and ``spawn`` start
methods.  Campaign drivers whose cases capture unpicklable context
(e.g. a workload-factory closure) can pass it via ``payload=``: the dict
is installed in a module global *before* the workers fork and referenced
by key through :func:`call_payload`.  That mechanism needs the ``fork``
start method; where only ``spawn`` exists, payload campaigns degrade to
serial execution.
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

#: Fork-inherited context for unpicklable campaign state; see
#: :func:`call_payload`.
_PAYLOAD = {}

#: Gen-0 GC threshold inside :func:`batched_gc`.  Campaign loops
#: allocate millions of short-lived containers over a large live heap;
#: at CPython's default of 700 the cyclic collector keeps re-walking
#: that heap (about a third of an exhaustive litmus drain).
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

    ``affinity`` is a soft placement hint: :meth:`WorkerPool.map`
    prefers the worker at position ``affinity % jobs`` when it is idle,
    falling back to any idle worker rather than stalling the wave.
    Wave-structured drivers use it to land a case on the worker whose
    process-local caches its ancestor warmed (the model checker's
    checkpoint cache); it never affects results, only placement.
    """

    runner: str
    name: str
    args: tuple = ()
    kwargs: tuple = ()
    affinity: int = None


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


def call_payload(key, *args, **kwargs):
    """Invoke an unpicklable callable shipped to workers by fork.

    ``run_campaign(..., payload={key: fn})`` installs ``fn`` in
    :data:`_PAYLOAD` before the workers fork; a spec whose runner is
    ``"repro.harness.parallel:call_payload"`` with ``args=(key, ...)``
    then reaches it in the child by inheritance.
    """
    try:
        fn = _PAYLOAD[key]
    except KeyError:
        raise RuntimeError(
            f"payload key {key!r} not installed (campaign payloads need "
            "the fork start method)") from None
    return fn(*args, **kwargs)


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
    """Worker loop: pull ``(epoch, index, spec, timeout)`` tasks, push
    ``(epoch, index, pickled outcome)`` results.  Outcomes are pickled
    in the worker so an unpicklable result surfaces as a classified
    failure rather than wedging the queue's feeder thread.  The epoch
    tag travels untouched: it lets a persistent pool tell a live wave's
    results from a written-off worker's stale ones."""
    while True:
        task = task_queue.get()
        if task is None:
            return
        epoch, index, spec, timeout = task
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
        result_queue.put((epoch, index, blob))


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

    def assign(self, epoch, index, spec, timeout):
        self.index = index
        self.started = time.monotonic()
        self.task_queue.put((epoch, index, spec, timeout))

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
                 failure_result=None, grace=5.0, payload=None):
    """Run a campaign's specs and return results in enumeration order.

    ``jobs`` <= 1 runs serially in-process (same classification, no
    subprocesses).  ``timeout`` is the per-case budget in seconds;
    ``grace`` is how long past it the parent waits before killing a
    worker that ignored its alarm.  ``failure_result(spec, message)``
    builds the domain's failure record (default
    :class:`CampaignFailure`); ``report`` sees each result in
    enumeration order.  ``payload`` ships unpicklable context to forked
    workers — see :func:`call_payload`.
    """
    specs = list(specs)
    if failure_result is None:
        failure_result = lambda spec, message: CampaignFailure(  # noqa: E731
            spec.name, message)
    ctx = _context()
    if payload is not None and ctx.get_start_method() != "fork":
        jobs = 1  # payload callables only travel by fork inheritance
    global _PAYLOAD
    saved_payload = _PAYLOAD
    if payload is not None:
        _PAYLOAD = dict(payload)
    try:
        if jobs <= 1 or len(specs) <= 1:
            results = []
            for spec in specs:
                result = _run_guarded(spec, timeout, failure_result)
                results.append(result)
                if report is not None:
                    report(result)
            return results
        with WorkerPool(min(jobs, len(specs)), ctx=ctx) as pool:
            return pool.map(specs, timeout=timeout, report=report,
                            failure_result=failure_result, grace=grace)
    finally:
        _PAYLOAD = saved_payload


class WorkerPool:
    """A persistent pool of case workers, reusable across waves.

    :func:`run_campaign` spins one up per call; wave-structured drivers
    — the model checker's generation BFS (:mod:`repro.check.explore`)
    runs one campaign per frontier generation — keep a single pool
    alive across many :meth:`map` calls instead of respawning ``jobs``
    interpreters per wave.

    Each :meth:`map` call is one *epoch*.  Tasks and results carry the
    epoch tag, so a result arriving from a worker that was written off
    in an earlier wave (killed after a timeout, crashed mid-case, or
    simply slow to flush its queue before being replaced) can never be
    mistaken for a result of the current wave; within a wave the
    result-slot guard catches same-epoch stragglers as before.
    """

    def __init__(self, jobs, ctx=None):
        self._ctx = ctx if ctx is not None else _context()
        self.jobs = max(1, int(jobs))
        self._result_queue = self._ctx.Queue()
        self._workers = [
            _Worker(self._ctx, self._result_queue)
            for _ in range(self.jobs)
        ]
        self._epoch = 0
        self._closed = False

    def map(self, specs, timeout=None, report=None, failure_result=None,
            grace=5.0):
        """Run one wave of specs; returns results in enumeration order.

        Same contract as :func:`run_campaign` for ``timeout``,
        ``report``, ``failure_result`` and ``grace``.
        """
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        specs = list(specs)
        if failure_result is None:
            failure_result = lambda spec, message: CampaignFailure(  # noqa: E731
                spec.name, message)
        if not specs:
            return []
        self._epoch += 1
        epoch = self._epoch
        workers = self._workers
        # A worker still marked busy here belongs to a wave that was
        # abandoned mid-flight (exception between map calls): its index
        # and start time describe the old epoch, so retire it rather
        # than let this wave's watchdog misread them.
        for pos, worker in enumerate(workers):
            if worker.index is not None:
                worker.kill()
                workers[pos] = _Worker(self._ctx, self._result_queue)
        results = [_UNSET] * len(specs)
        #: Worker position each case was dispatched to, by case index —
        #: the feedback channel affinity-aware drivers use to tag the
        #: next wave (a child lands where its ancestor's caches live).
        self.last_assignments = [None] * len(specs)
        n_done = 0
        emitted = 0
        pending = list(range(len(specs)))
        idle = list(workers)

        def take_for(position):
            """The next case for the idle worker at ``position``:
            its affine case if one is pending, else the first pending
            unpinned case, else (work-conserving) the oldest pending
            case even if pinned elsewhere."""
            fallback = None
            for slot, index in enumerate(pending):
                affinity = specs[index].affinity
                if affinity is not None and affinity % self.jobs == position:
                    return pending.pop(slot)
                if fallback is None and affinity is None:
                    fallback = slot
            return pending.pop(fallback if fallback is not None else 0)

        def finish(index, result):
            nonlocal n_done, emitted
            if results[index] is not _UNSET:
                return  # stale message from a worker already written off
            results[index] = result
            n_done += 1
            if report is not None:
                while (emitted < len(results)
                        and results[emitted] is not _UNSET):
                    report(results[emitted])
                    emitted += 1

        def respawn(worker):
            fresh = _Worker(self._ctx, self._result_queue)
            workers[workers.index(worker)] = fresh
            idle.append(fresh)

        while n_done < len(specs):
            while idle and pending:
                worker = idle.pop()
                if not worker.alive():   # died idle; replace and retry
                    respawn(worker)
                    continue
                position = workers.index(worker)
                index = take_for(position)
                self.last_assignments[index] = position
                worker.assign(epoch, index, specs[index], timeout)
            try:
                r_epoch, index, blob = self._result_queue.get(
                    timeout=_POLL_S)
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
            if r_epoch != epoch:
                continue  # a written-off worker's leftover from a past wave
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

    def close(self):
        """Stop every worker and release the queues."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            worker.stop()
        deadline = time.monotonic() + 2.0
        for worker in self._workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.kill()
        self._result_queue.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
