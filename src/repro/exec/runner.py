"""The sharded sweep driver: chunked kernels, inline or over a pool.

:func:`run_sharded` runs one *chunk kernel* over every shard of a
:class:`~repro.exec.plan.ShardPlan` and reduces the ordered chunk
results. A chunk kernel is a **module-level** function with the
signature ``kernel(payload, start, stop) -> chunk_result``: it slices
the shared payload (scenario records, base parameters, trace lists) to
``[start, stop)`` and makes one batched kernel call for that chunk.

Parallel execution uses a :class:`~concurrent.futures.ProcessPoolExecutor`
whose workers are initialized *once* with the kernel's dotted name and
the pickled payload; per-chunk task messages are then just ``(start,
stop, attempt)`` index triples, so a thousand-chunk sweep does not
re-ship the scenario records a thousand times. Kernels are addressed
by ``"module:function"`` name — resolved by import inside the worker —
which keeps the driver picklable under every start method (fork,
forkserver, spawn).

``jobs=1`` runs the same chunks inline, one at a time, which is both
the zero-dependency fallback and the memory-bounding mode: intermediate
(scenarios × draws × years) kernel arrays never exceed ``chunk_size``
scenarios, whatever the grid size.

Both modes share one fault-tolerant attempt loop. Work proceeds in
*waves*: each wave owns a fresh executor, submits every not-yet-finished
chunk, and polls with a short :func:`concurrent.futures.wait` so the
driver can notice three distinct failure modes — a chunk that raises (a
normal failed future), a worker that dies (the pool breaks; only chunks
observed running are charged an attempt, the rest resubmit uncharged),
and a chunk that hangs (its wall-clock runtime exceeds the per-chunk
``timeout``; running futures cannot be cancelled, so the whole pool is
abandoned — queued work cancelled, workers terminated — and the next
wave takes over). Inline chunks go through the same loop on an executor
that runs each task as it is submitted. Pooled results cross the
process boundary in an integrity envelope (sha256 over the
worker-pickled bytes), so a corrupt result is detected and charged as a
failed attempt instead of silently combined. Retries follow a
:class:`~repro.exec.retry.RetryPolicy` with deterministic seeded
backoff; how exhausted chunks surface, and checkpointing, are set by
:class:`~repro.exec.options.ExecOptions`.
"""

from __future__ import annotations

import concurrent.futures
import functools
import hashlib
import importlib
import pickle
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..errors import ChunkFailedError, CorruptChunkError, ExecutionError
from ..obs.recorder import NULL_RECORDER, active_recorder
from .faults import FaultSpec, active_fault_spec, corrupt_bytes, perform_fault
from .options import ExecOptions, _public_runner
from .plan import Shard, ShardPlan
from .retry import ChunkFailure, FailureReport, RetryPolicy

try:
    import resource as _resource
except ImportError:  # pragma: no cover - resource is POSIX-only
    _resource = None

__all__ = ["kernel_name", "resolve_kernel", "run_sharded"]

#: Per-worker state installed by the pool initializer: the resolved
#: chunk kernel, the shared payload, and any armed fault spec, shipped
#: once per worker.
_WORKER_STATE: dict[str, Any] = {}

#: How often the driver wakes to check for finished, crashed, or hung
#: chunks. Small enough that timeout detection is prompt; large enough
#: that polling is invisible next to real kernel work.
_POLL_INTERVAL = 0.05

# Module-level aliases so tests can substitute doubles (a pool that
# records shutdown arguments, a wait that raises KeyboardInterrupt)
# without monkeypatching the stdlib for every process.
_pool_executor = concurrent.futures.ProcessPoolExecutor
_wait = concurrent.futures.wait
_sleep = time.sleep


def kernel_name(kernel: Callable[..., Any]) -> str:
    """The ``"module:function"`` name of a module-level chunk kernel.

    Validates that the name round-trips — ``resolve_kernel`` on the
    result must return the same object — which is exactly the property
    a spawned worker process relies on. Lambdas, closures, and methods
    fail here, at submission time, instead of inside the pool.
    """
    module = getattr(kernel, "__module__", None)
    qualname = getattr(kernel, "__qualname__", None)
    if not module or not qualname:
        raise ExecutionError(f"chunk kernel {kernel!r} has no importable name")
    name = f"{module}:{qualname}"
    try:
        resolved = resolve_kernel(name)
    except ExecutionError as error:
        raise ExecutionError(
            f"chunk kernel {name!r} must be a module-level function so "
            f"worker processes can import it ({error})"
        ) from error
    if resolved is not kernel:
        raise ExecutionError(
            f"chunk kernel name {name!r} resolves to a different object; "
            "kernels must be module-level functions"
        )
    return name


def resolve_kernel(name: str) -> Callable[..., Any]:
    """Import a chunk kernel back from its ``"module:function"`` name."""
    module_name, _, attribute = name.partition(":")
    if not module_name or not attribute or "." in attribute:
        raise ExecutionError(
            f"kernel name must look like 'package.module:function', got {name!r}"
        )
    try:
        module = importlib.import_module(module_name)
    except ImportError as error:
        raise ExecutionError(
            f"cannot import kernel module {module_name!r}: {error}"
        ) from error
    kernel = getattr(module, attribute, None)
    if not callable(kernel):
        raise ExecutionError(
            f"{module_name!r} has no callable {attribute!r}"
        )
    return kernel


def _worker_init(
    name: str,
    payload: Any,
    faults: "FaultSpec | None" = None,
    telemetry: bool = False,
) -> None:
    """Pool initializer: resolve the kernel and pin the shared payload.

    ``telemetry`` mirrors whether the driver has a live recorder: when
    set, each chunk ships its timing and peak-RSS events back in the
    result envelope; when clear, workers build no telemetry at all.
    """
    _WORKER_STATE["kernel"] = resolve_kernel(name)
    _WORKER_STATE["payload"] = payload
    _WORKER_STATE["faults"] = faults
    _WORKER_STATE["telemetry"] = telemetry


def _peak_rss_kb() -> "int | None":
    """This process's peak resident set size in KiB, if knowable.

    ``ru_maxrss`` is KiB on Linux and bytes on macOS; normalized to
    KiB so traces are comparable. ``None`` where ``resource`` is
    unavailable (non-POSIX platforms).
    """
    if _resource is None:
        return None
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak //= 1024
    return int(peak)


def _envelope(result: Any) -> tuple[str, bytes]:
    """Wrap a chunk result as (sha256 hex digest, pickled bytes).

    The worker digests its *own* pickled bytes, so the driver-side
    check is sensitive to anything that mangles the payload in transit
    without depending on pickling being canonical across processes.
    """
    blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.sha256(blob).hexdigest(), blob


def _open_envelope(envelope: Any, *, start: int, stop: int) -> Any:
    """Verify a chunk result envelope and return the result inside."""
    try:
        digest, blob = envelope
        actual = hashlib.sha256(blob).hexdigest()
    except Exception as error:
        raise CorruptChunkError(
            f"malformed result envelope for chunk [{start}, {stop})"
        ) from error
    if actual != digest:
        raise CorruptChunkError(
            f"integrity check failed for chunk [{start}, {stop}): "
            f"expected sha256 {digest[:12]}, got {actual[:12]}"
        )
    try:
        return pickle.loads(blob)
    except Exception as error:
        raise CorruptChunkError(
            f"cannot deserialize the result for chunk [{start}, {stop})"
        ) from error


def _worker_chunk(start: int, stop: int, attempt: int = 1) -> tuple:
    """Run the initialized kernel on one ``[start, stop)`` chunk.

    Returns the envelope ``(digest, blob, events)``: the result pickled
    with its sha256 digest, plus worker telemetry. If a fault rule
    matches this (chunk, attempt), it fires here: ``raise``, ``crash``,
    and ``hang`` before the kernel runs; ``corrupt`` by flipping a bit
    of the pickled result *after* the digest is taken, so the driver's
    verification fails deterministically.

    ``events`` is ``None`` unless telemetry is armed, when it is a list
    of ``chunk_worker`` event dicts (kernel wall time, rows, peak RSS)
    the driver records on arrival. The events ride *outside* the
    digested blob, so telemetry can never perturb integrity checks,
    cached bytes, or results.
    """
    spec = _WORKER_STATE.get("faults")
    rule = spec.match(start, attempt) if spec else None
    if rule is not None and rule.kind != "corrupt":
        perform_fault(rule, start=start, in_worker=True)
    began = time.monotonic()
    result = _WORKER_STATE["kernel"](_WORKER_STATE["payload"], start, stop)
    duration = time.monotonic() - began
    digest, blob = _envelope(result)
    if rule is not None and rule.kind == "corrupt":
        blob = corrupt_bytes(blob)
    events = None
    if _WORKER_STATE.get("telemetry"):
        events = [
            {
                "kind": "chunk_worker",
                "start": start,
                "stop": stop,
                "attempt": attempt,
                "dur_s": duration,
                "rows": stop - start,
                "peak_rss_kb": _peak_rss_kb(),
            }
        ]
    return digest, blob, events


def _inline_chunk(
    kernel: Callable[[Any, int, int], Any],
    payload: Any,
    spec: "FaultSpec | None",
    start: int,
    stop: int,
    attempt: int,
) -> "tuple[Any, float]":
    """Run one chunk on the calling thread; returns ``(result, seconds)``.

    The inline counterpart of :func:`_worker_chunk`: a ``crash`` rule
    degrades to a raise, and the result is neither pickled nor hashed —
    except under a ``corrupt`` rule, which damages a real envelope so
    verification objects exactly as it does for a pooled chunk.
    """
    rule = spec.match(start, attempt) if spec is not None else None
    began = time.monotonic()
    if rule is not None and rule.kind != "corrupt":
        perform_fault(rule, start=start, in_worker=False)
    result = kernel(payload, start, stop)
    if rule is not None and rule.kind == "corrupt":
        digest, blob = _envelope(result)
        _open_envelope((digest, corrupt_bytes(blob)), start=start, stop=stop)
    return result, time.monotonic() - began


class _InlineExecutor:
    """An executor that runs each task on the calling thread as it is
    submitted, so inline chunks share the pool's attempt loop."""

    def __init__(self, **pool_args: Any) -> None:
        """Pool sizing and initializers do not apply: there are no workers."""

    def submit(
        self, fn: Callable[..., Any], *args: Any
    ) -> concurrent.futures.Future:
        future: concurrent.futures.Future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args))
        except Exception as error:
            future.set_exception(error)
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        """Nothing to release."""


@dataclass
class _TaskFailure:
    """A shard that exhausted its retry budget, with its final cause."""

    shard: Shard
    attempts: int
    kind: str
    message: str
    error: "BaseException | None" = None


def _abandon_pool(pool: Any) -> None:
    """Tear a pool down hard: cancel queued chunks, kill its workers.

    Used when a chunk hangs past its timeout (running futures cannot
    be cancelled), when the pool breaks, and on any driver-side error
    including KeyboardInterrupt — a failed sweep must not linger on
    queued work.
    """
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:
            pass


def _run_pool_tasks(
    shards: Sequence[Shard],
    *,
    task_fn: Callable[..., Any],
    workers: int,
    retry: RetryPolicy,
    timeout: "float | None" = None,
    initializer: "Callable[..., None] | None" = None,
    initargs: tuple = (),
    postprocess: "Callable[[Shard, Any], tuple[Any, dict]] | None" = None,
    inline: bool = False,
) -> tuple[dict[int, Any], list[_TaskFailure]]:
    """The wave-based fault-tolerant attempt loop.

    Runs ``task_fn(shard.start, shard.stop, attempt)`` for every shard
    across a process pool — or, with ``inline=True``, on the calling
    thread — retrying failures per ``retry``. Each *wave* owns a fresh
    executor; a wave ends normally when all its futures resolve, or is
    abandoned when the pool breaks (worker crash) or a chunk runs past
    ``timeout`` — the unfinished, uncharged shards roll into the next
    wave. ``postprocess(shard, raw)`` runs driver-side on each
    completed future (envelope verification, checkpointing) and
    returns the chunk plus extra fields for its ``ok`` attempt event;
    an exception there counts as a failed attempt of that shard.

    Every pooled wave is a ``wave`` span on the active recorder; each
    charged attempt lands as a chunk-scoped ``attempt`` event (outcome
    ``ok``/``error``/``corrupt``/``crash``/``timeout``; keyed by shard
    index, backoff stream = shard start), each scheduled retry as a
    ``retry`` event, and pool teardown/rebuild as ``pool`` events.

    Returns ``(results, failures)``: the postprocessed chunks keyed by
    shard index, and the shards that exhausted every attempt.
    """
    recorder = active_recorder()
    executor = _InlineExecutor if inline else _pool_executor
    # Inline tasks have no pool, so no waves or pool events to trace.
    pool_recorder = NULL_RECORDER if inline else recorder
    pending: list[tuple[Shard, int]] = [(shard, 1) for shard in shards]
    results: dict[int, Any] = {}
    failures: list[_TaskFailure] = []

    def charge(
        shard: Shard,
        attempt: int,
        kind: str,
        message: str,
        error: "BaseException | None",
        delays: list[float],
    ) -> None:
        recorder.event(
            "attempt",
            scope="chunk",
            key=shard.index,
            stream=shard.start,
            attempt=attempt,
            outcome=kind,
            error=message[:200],
        )
        if attempt < retry.max_attempts:
            delay = retry.delay(shard.start, attempt)
            recorder.event(
                "retry",
                scope="chunk",
                stream=shard.start,
                attempt=attempt,
                delay_s=delay,
            )
            delays.append(delay)
            pending.append((shard, attempt + 1))
        else:
            failures.append(_TaskFailure(shard, attempt, kind, message, error))

    wave_index = 0
    while pending:
        wave, pending = pending, []
        if wave_index:
            pool_recorder.event("pool", op="rebuild", wave=wave_index)
        wave_span = pool_recorder.span(
            "wave",
            index=wave_index,
            tasks=len(wave),
            workers=min(workers, len(wave)),
        )
        wave_index += 1
        with wave_span:
            pool = executor(
                max_workers=min(workers, len(wave)),
                initializer=initializer,
                initargs=initargs,
            )
            delays: list[float] = []
            abandoned = False
            try:
                info = {}
                for shard, attempt in wave:
                    future = pool.submit(task_fn, shard.start, shard.stop, attempt)
                    info[future] = (shard, attempt)
                outstanding = set(info)
                first_running: dict[Any, float] = {}
                while outstanding:
                    done, outstanding = _wait(
                        outstanding,
                        timeout=_POLL_INTERVAL,
                        return_when=concurrent.futures.FIRST_COMPLETED,
                    )
                    now = time.monotonic()
                    broken: "BaseException | None" = None
                    for future in done:
                        shard, attempt = info[future]
                        try:
                            value, fields = future.result(), {}
                            if postprocess is not None:
                                value, fields = postprocess(shard, value)
                        except concurrent.futures.BrokenExecutor as error:
                            # A dead worker poisons every unfinished future
                            # with the same exception; fold this one back in
                            # and attribute blame once, below.
                            broken = error
                            outstanding.add(future)
                            continue
                        except Exception as error:
                            kind = (
                                "corrupt"
                                if isinstance(error, CorruptChunkError)
                                else "error"
                            )
                            charge(shard, attempt, kind, str(error), error, delays)
                            continue
                        recorder.event(
                            "attempt",
                            scope="chunk",
                            key=shard.index,
                            stream=shard.start,
                            attempt=attempt,
                            outcome="ok",
                            **fields,
                        )
                        results[shard.index] = value
                    # The pool is forfeit when a worker died or a chunk
                    # hung: the blamed tasks are charged an attempt and
                    # innocent bystanders resubmit uncharged next wave.
                    blamed: "set | None" = None
                    if broken is not None:
                        # Only tasks observed running can have killed the
                        # worker. If the crash beat our first poll, charge
                        # everything unfinished rather than loop forever.
                        blamed = {f for f in outstanding if f in first_running}
                        blamed = blamed or set(outstanding)
                        kind, message = "crash", f"worker process died ({broken})"
                    else:
                        for future in outstanding:
                            if future not in first_running and future.running():
                                first_running[future] = now
                        if timeout is not None:
                            # Running futures cannot be cancelled.
                            blamed = {
                                future
                                for future in outstanding
                                if future in first_running
                                and now - first_running[future] >= timeout
                            }
                            kind = "timeout"
                            message = (
                                f"chunk ran past the {timeout:g}s per-chunk timeout"
                            )
                    if blamed:
                        for future in outstanding:
                            shard, attempt = info[future]
                            if future in blamed:
                                charge(shard, attempt, kind, message, broken, delays)
                            else:
                                pending.append((shard, attempt))
                        pool_recorder.event("pool", op="abandon", reason=kind)
                        _abandon_pool(pool)
                        abandoned = True
                        break
            except BaseException:
                _abandon_pool(pool)
                raise
            if not abandoned:
                pool.shutdown(wait=True)
        if pending and delays:
            _sleep(max(delays))
    return results, failures


def _raise_exhausted(failure: _TaskFailure, *, raw: bool) -> None:
    """Raise for one exhausted shard.

    With ``raw`` set (``on_error="raise"`` and no retry budget) a chunk
    kernel's own exception propagates unchanged, as ``run_sharded``
    always raised before the fault-tolerance layer existed. Otherwise —
    and always for crashes, timeouts, and corrupt results, which are
    never the kernel's own exception — a structured
    :class:`~repro.errors.ChunkFailedError` names the shard, chained
    from the cause.
    """
    if raw and failure.kind == "error":
        raise failure.error
    shard = failure.shard
    raise ChunkFailedError(
        f"chunk {shard.index} (scenarios [{shard.start}, {shard.stop})) "
        f"failed after {failure.attempts} attempt(s) [{failure.kind}]: "
        f"{failure.message}",
        index=shard.index,
        start=shard.start,
        stop=shard.stop,
        attempts=failure.attempts,
        kind=failure.kind,
    ) from failure.error


def _chunk_failure(failure: _TaskFailure) -> ChunkFailure:
    """Convert an engine failure into its report form."""
    return ChunkFailure(
        index=failure.shard.index,
        start=failure.shard.start,
        stop=failure.shard.stop,
        attempts=failure.attempts,
        kind=failure.kind,
        error=repr(failure.error) if failure.error is not None else failure.message,
    )


def _run_sharded(
    kernel: Callable[[Any, int, int], Any],
    payload: Any,
    plan: ShardPlan,
    options: ExecOptions,
    *,
    combine: "Callable[[Sequence[Any]], Any] | None" = None,
    faults: "FaultSpec | None" = None,
) -> "tuple[Any, FailureReport]":
    """:func:`run_sharded` before its return contract: ``(result, report)``.

    The report is empty unless ``options.on_error`` is ``"skip"``:
    under ``"raise"`` the first exhausted chunk raises here. Sweep
    runners call this with their one :class:`ExecOptions` and apply
    :meth:`ExecOptions.finish` at their own public boundary.
    """
    spec = active_fault_spec(faults) or None
    name = kernel_name(kernel)
    shards = plan.shards()
    checkpoint = options.checkpoint if len(shards) > 1 else None
    inline = options.jobs == 1 or (len(shards) == 1 and options.timeout is None)
    recorder = active_recorder()

    def keep(shard: Shard, chunk: Any) -> Any:
        if checkpoint is not None:
            checkpoint.put(shard.start, shard.stop, chunk)
        return chunk

    def finish_inline(shard: Shard, raw: Any) -> "tuple[Any, dict]":
        chunk, duration = raw
        return keep(shard, chunk), {"dur_s": duration, "rows": shard.size}

    def finish_pooled(shard: Shard, raw: Any) -> "tuple[Any, dict]":
        digest, blob, events = raw
        recorder.record_worker_events(events)
        chunk = _open_envelope((digest, blob), start=shard.start, stop=shard.stop)
        return keep(shard, chunk), {}

    if inline:
        engine = functools.partial(
            _run_pool_tasks,
            task_fn=functools.partial(_inline_chunk, kernel, payload, spec),
            workers=1,
            postprocess=finish_inline,
            inline=True,
        )
    else:
        engine = functools.partial(
            _run_pool_tasks,
            task_fn=_worker_chunk,
            workers=options.jobs,
            timeout=options.timeout,
            initializer=_worker_init,
            initargs=(name, payload, spec, recorder.enabled),
            postprocess=finish_pooled,
        )

    with recorder.span(
        "sharded_run",
        kernel=name,
        scenarios=plan.num_scenarios,
        chunks=len(shards),
        jobs=options.jobs,
    ):
        completed: dict[int, Any] = {}
        todo: list[Shard] = []
        for shard in shards:
            if checkpoint is not None:
                hit, chunk = checkpoint.get(shard.start, shard.stop)
                if hit:
                    completed[shard.index] = chunk
                    continue
            todo.append(shard)

        # Inline chunks run one at a time, each through all its
        # attempts, so "raise" stops at the first exhausted chunk
        # without running the rest.
        failures: list[_TaskFailure] = []
        for batch in [[shard] for shard in todo] if inline else [todo]:
            results, failed = engine(batch, retry=options.retries)
            completed.update(results)
            failures.extend(failed)
            if failed and options.on_error == "raise":
                break

        if failures:
            failures.sort(key=lambda failure: failure.shard.index)
            raising = options.on_error == "raise"
            if raising or not completed:
                _raise_exhausted(
                    failures[0],
                    raw=raising and options.retries.max_attempts == 1,
                )
        elif checkpoint is not None:
            checkpoint.complete()
        chunks = [completed[index] for index in sorted(completed)]
        result = chunks if combine is None else combine(chunks)
        report = FailureReport(
            failures=tuple(_chunk_failure(failure) for failure in failures),
            num_chunks=len(shards),
        )
        return result, report


def _run_batch(
    kernel: Callable[[Any, int, int], Any],
    payload: Any,
    size: int,
    options: ExecOptions,
    *,
    combine: "Callable[[Sequence[Any]], Any]",
    **span: Any,
) -> "tuple[Any, FailureReport]":
    """A sweep runner's sharded run of ``size`` scenarios, in its span.

    Plans the shards from ``options`` and runs them inside a ``batch``
    span labelled with ``span``; returns ``(result, report)`` for the
    runner to finish at its public boundary.
    """
    plan = ShardPlan.plan(size, options.chunk_size, options.jobs)
    with active_recorder().span("batch", **span):
        return _run_sharded(kernel, payload, plan, options, combine=combine)


@_public_runner
def run_sharded(
    kernel: Callable[[Any, int, int], Any],
    payload: Any,
    plan: ShardPlan,
    *,
    combine: "Callable[[Sequence[Any]], Any] | None" = None,
    faults: "FaultSpec | None" = None,
    options: ExecOptions,
) -> "tuple[Any, FailureReport]":
    """Run ``kernel`` over every shard of ``plan`` and reduce the chunks.

    ``kernel(payload, start, stop)`` is called once per shard — inline
    for ``jobs=1``, across a ``ProcessPoolExecutor(max_workers=jobs)``
    otherwise. Chunk results are consumed in shard order and handed to
    ``combine`` as one ordered list; with ``combine=None`` the list
    itself is returned. Because every sharded runner derives
    per-scenario state from global scenario records, the combined
    result is bit-identical to a monolithic run for any
    ``jobs``/``chunk_size`` — and, via the retry machinery, for any
    schedule of recovered faults.

    ``options`` are the :class:`~repro.exec.options.ExecOptions`
    settings except ``chunk_size``, which ``plan`` already fixes; the
    return value follows their contract: the combined result, or
    ``(partial_result, FailureReport)`` under ``on_error="skip"``.
    ``faults`` is an explicit :class:`~repro.exec.faults.FaultSpec`;
    by default :func:`~repro.exec.faults.active_fault_spec` resolves
    one (installed spec, then the ``REPRO_FAULTS`` environment
    variable).
    """
    if options.chunk_size is not None:
        raise TypeError("run_sharded() takes its chunk_size from the plan")
    return _run_sharded(
        kernel, payload, plan, options, combine=combine, faults=faults
    )
