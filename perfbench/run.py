"""The repo benchmark: one workload per process, every metric by name.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is a separate run that reports the per-layer metrics.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the machine and the run (sample counts, percentiles, lateness).
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("fleet", "portfolio", "serve")
#: Set-up repetitions of a timed run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def _fail(message: str) -> "None":
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    sys.exit(2)


def _import_program() -> None:
    """Put this checkout's ``src`` first and make sure it is what loads."""
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        _fail(f"imported repro from {repro.__file__}, not from {SRC}")


def _import_seconds(modules: "tuple[str, ...]") -> float:
    """Wall time of a fresh interpreter importing the workload's modules."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import {', '.join(modules)}"
    began = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                   stdin=subprocess.DEVNULL)
    return time.perf_counter() - began


def _on_sigterm(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def _metrics_line(names: "list[dict]", values: dict) -> dict:
    metrics = {}
    for spec in names:
        value = values.get(spec["name"])
        if value is None:
            raise RuntimeError(f"metric {spec['name']!r} was not measured")
        metrics[spec["name"]] = {"value": float(value), "unit": spec["unit"]}
    return metrics


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        _fail(f"cannot read BENCHMARK.json: {error}")
    _import_program()
    signal.signal(signal.SIGTERM, _on_sigterm)

    import pb_stats
    from pb_serve import ServeWorkload
    from pb_sweeps import JOBS, WORKLOADS as SWEEPS, end_to_end, run_pattern, traced_run

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    if args.workload == "serve":
        workload = ServeWorkload(args.seed, args.seconds, ROOT, work)
    else:
        workload = SWEEPS[args.workload](args.seed)
    values: dict = {}
    facts: dict = {"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "machine": pb_stats.machine()}
    correct = True
    try:
        # Set-up, several times: a fresh interpreter's imports, input
        # generation and references, and (serve) a service started to
        # its first 200. The last repetition's state is the one used.
        setups, service = [], None
        for repeat in range(1 if args.trace else SETUP_REPEATS):
            seconds = _import_seconds(workload.modules)
            began = time.perf_counter()
            workload.prepare()
            seconds += time.perf_counter() - began
            if args.workload == "serve" and not args.trace:
                if service is not None:
                    correct = service.stop() and correct
                service, started = workload.start_service()
                seconds += started
            setups.append(seconds)
        values["setup_s"] = pb_stats.median(setups)
        # The benchmark's own inputs and references are never garbage,
        # so keep collections in the timed ops from scanning them.
        gc.collect()
        gc.freeze()
        facts["setup_samples_s"] = setups
        if args.workload == "serve":
            if args.trace:
                layers, run_facts, attempted, failed = workload.traced()
                values.update(layers)
            else:
                e2e, run_facts, attempted, failed = workload.timed(service)
                values.update(e2e)
                attempted += 1
                if not service.stop():
                    failed += 1
                    print("perfbench: service did not report a clean drain", flush=True)
        else:
            if not workload.scalar_check():
                correct = False
                print("perfbench: uncertain row differs from scalar monte_carlo", flush=True)
            if args.trace:
                layers, run_facts = traced_run(workload, args.seconds)
                values.update(layers)
                attempted, failed = run_facts.pop("attempted"), run_facts.pop("failed")
            else:
                ops = workload.ops()
                loop = run_pattern(ops, workload.point_calls_per_cycle, args.seconds)
                e2e, run_facts = end_to_end(ops, workload.point_calls_per_cycle, loop)
                values.update(e2e)
                attempted, failed = loop["attempted"], loop["failed"]
                # The calling process's peak, plus the largest pool worker's when the
                # workload ships chunks to workers.
                values["peak_rss_mb"] = pb_stats.self_peak_rss_mb() + (
                    pb_stats.children_peak_rss_mb() if args.workload == "portfolio" else 0.0
                )
        facts.update(run_facts)
        facts["jobs"] = JOBS if args.workload == "portfolio" else 1
        facts["failed_share"] = failed / attempted
        names = spec["per_layer"] if args.trace else spec["end_to_end"]
        if args.trace:
            for metric in names:
                values.setdefault(metric["name"], 0.0)
        metrics = _metrics_line(names, values)
    finally:
        if args.workload == "serve":
            workload.stop_all()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"run": facts}, default=str))
    print(json.dumps({
        "correct": bool(correct and failed == 0),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
