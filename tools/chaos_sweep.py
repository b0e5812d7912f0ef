#!/usr/bin/env python
"""Chaos smoke runner: a named sweep under a seeded fault storm.

Runs one registered sweep twice — once clean, once with
:meth:`repro.exec.FaultSpec.chaos` injecting first-attempt faults
(raise / worker crash / corrupt result) into a seeded subset of its
chunks while retries are armed — and exits non-zero unless the
recovered result is element-identical to the clean run. The storm is
exactly reproducible from ``--seed``, so a failure here is a
deterministic bug report, not a flake.

With ``--trace-out PATH`` the stormy run records a JSONL trace
(:mod:`repro.obs`), and the script additionally verifies the trace
against the fault schedule itself: every injected rule must have left
a first-attempt ``attempt`` event with the outcome
:func:`repro.exec.predict_outcomes` maps it to, and every chunk must
have ended with an ``ok`` attempt.

Usage::

    PYTHONPATH=src python tools/chaos_sweep.py
    PYTHONPATH=src python tools/chaos_sweep.py --sweep provisioning_mix \
        --seed 7 --rate 1.0 --jobs 2 --trace-out /tmp/chaos.jsonl

``tests/test_chaos_sweep.py`` runs it over every registered sweep, and
``benchmarks/run_benchmarks.sh --quick`` runs it (traced) as part of
its smoke pass.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.exec import FaultSpec, ShardPlan, install_faults, predict_outcomes
from repro.obs import TraceRecorder, install_recorder
from repro.scenarios import SWEEPS, run_sweep
from repro.tabular import Table


def _verify_trace(
    events: "list[dict]",
    spec: FaultSpec,
    starts: "list[int]",
    retries: int,
    jobs: int,
) -> "list[str]":
    """Check recorded attempt events against the fault schedule.

    Returns human-readable problems (empty = trace matches). Two
    properties are enforced: every injected rule left a first-attempt
    event with its predicted outcome, and every chunk's last attempt
    was ``ok`` (the storm fires on attempt 1 only, so an armed retry
    budget must recover everything). One documented slack: a pooled
    worker crash breaks the whole pool, so chunks in-flight alongside
    the crash may have their first attempt co-charged as ``crash``
    instead of their own predicted outcome.
    """
    pooled = jobs > 1
    predicted = predict_outcomes(
        spec,
        starts,
        max_attempts=retries + 1,
        pooled=pooled,
        timeout_armed=False,
    )
    crash_in_pool = pooled and any(
        rule.kind == "crash" for rule in spec.rules
    )
    attempts: dict[int, list[tuple[int, str]]] = {}
    for event in events:
        if event.get("kind") == "attempt":
            attempts.setdefault(event["stream"], []).append(
                (event["attempt"], event["outcome"])
            )
    problems = []
    for rule in spec.rules:
        start = rule.starts[0]
        want = predicted[start][0]
        if want == "ok":
            continue
        accept = {want, "crash"} if crash_in_pool else {want}
        seen = attempts.get(start, [])
        if not any(a == 1 and o in accept for a, o in seen):
            problems.append(
                f"chunk {start}: no first-attempt {want!r} event "
                f"(recorded {seen})"
            )
    for start in starts:
        seen = attempts.get(start, [])
        if not seen or seen[-1][1] != "ok":
            problems.append(
                f"chunk {start}: last attempt is not 'ok' (recorded {seen})"
            )
    return problems


def _tables_identical(left: Table, right: Table) -> bool:
    if left.column_names != right.column_names:
        return False
    if left.num_rows != right.num_rows:
        return False
    return all(
        left.column(name) == right.column(name) for name in left.column_names
    )


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description="run a named sweep under seeded fault injection and "
        "verify the recovered result is bit-identical to a clean run"
    )
    parser.add_argument(
        "--sweep",
        default="fleet_growth_lifetime",
        choices=sorted(SWEEPS),
        help="registered sweep to storm (default: fleet_growth_lifetime)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="chaos schedule seed (default: 0)"
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=1.0,
        help="fraction of chunks sampled for a fault (default: 1.0)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=2,
        help="worker processes for the stormy run (default: 2)",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="sharded-axis entries per chunk (default: about four chunks)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        help="retry budget for the stormy run (default: 2; chaos faults "
        "fire on attempt 1 only, so any budget >= 1 must recover)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="record the stormy run's JSONL trace at PATH and verify "
        "the emitted attempt events against the injected schedule",
    )
    args = parser.parse_args(argv)

    # The fault schedule must target the chunk starts of the axis the
    # sweep actually shards, which is not always its row count (the
    # portfolio sweep chunks its device catalog, the temporal sweep its
    # trace catalog): the clean run's sharded_run span reports it.
    probe = TraceRecorder()
    with install_recorder(probe):
        clean = run_sweep(args.sweep)
    axis = next(
        event["scenarios"]
        for event in probe.events
        if event["type"] == "span" and event["kind"] == "sharded_run"
    )
    chunk_size = args.chunk_size or max(1, axis // 4)
    plan = ShardPlan(num_scenarios=axis, chunk_size=chunk_size)
    starts = [shard.start for shard in plan.shards()]
    spec = FaultSpec.chaos(starts, seed=args.seed, rate=args.rate)
    schedule = {rule.starts[0]: rule.kind for rule in spec.rules}
    print(
        f"chaos: sweep={args.sweep!r} chunks={len(starts)} "
        f"chunk_size={chunk_size} seed={args.seed} rate={args.rate} "
        f"-> injecting {schedule or 'nothing'}"
    )
    if not spec:
        print("chaos: WARNING — the storm sampled zero chunks; raise --rate")

    recorder = TraceRecorder(args.trace_out) if args.trace_out else None
    began = time.perf_counter()
    with install_recorder(recorder), install_faults(spec):
        stormy = run_sweep(
            args.sweep,
            jobs=args.jobs,
            chunk_size=chunk_size,
            retries=args.retries,
        )
    elapsed = time.perf_counter() - began
    if recorder is not None:
        recorder.close()
    if not _tables_identical(stormy, clean):
        print(
            "chaos: MISMATCH — the recovered sweep differs from the clean "
            "run; fault recovery corrupted results",
            file=sys.stderr,
        )
        return 1
    if recorder is not None:
        problems = _verify_trace(
            recorder.events, spec, starts, args.retries, args.jobs
        )
        if problems:
            print(
                "chaos: TRACE MISMATCH — the recorded events disagree with "
                "the injected schedule:",
                file=sys.stderr,
            )
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        print(
            f"chaos: trace OK — {len(recorder.events)} events at "
            f"{args.trace_out} match the injected schedule"
        )
    print(
        f"chaos: OK — {clean.num_rows} rows bit-identical after "
        f"{len(schedule)} injected fault(s), recovered in {elapsed:.2f}s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
