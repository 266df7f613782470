"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_churn --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones (see
``perfbench/README.md``).  The line before it carries the run's
environment (``nproc``, Python and NumPy versions) and the supporting
figures behind the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCES = Path(__file__).resolve().parent / "references.json"

WORKLOAD_NAMES = ("serve_churn", "replay_peak", "replay_p90", "paper_fast")
DEFAULT_SEED = 0
DEFAULT_SECONDS = 15
#: Set-ups per run; the median is reported as ``setup_s``.
MIN_SETUPS = 3
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def configure_environment() -> None:
    """Serial sweeps, BLAS/OpenMP threads capped at ``nproc``, ``src`` on the path.

    Must run before NumPy is imported: BLAS reads its thread count once,
    at load time.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library sources under {SRC}")
    nproc = os.cpu_count() or 1
    os.environ["REPRO_SWEEP_WORKERS"] = "1"
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)
    paths = [str(SRC), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    sys.path.insert(0, str(SRC))


def _import_seconds(modules: str) -> float:
    """Wall time of a fresh interpreter importing ``modules`` (median of 5)."""
    samples = []
    for _ in range(5):
        began = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", f"import {modules}"], check=True, timeout=60
        )
        samples.append(time.perf_counter() - began)
    return statistics.median(samples)


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def measure(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run one workload for ``seconds`` and return its result object."""
    import gc
    import shutil

    import numpy as np

    import repro
    import tracer as tracing
    import workloads

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    input_seed = seed % workloads.INPUT_SEEDS
    workdir = OUT / f"{name}-{os.getpid()}"
    workload = workloads.make_workload(name, input_seed, workdir)
    reference = json.loads(REFERENCES.read_text())[name][workloads.reference_key(workload)]
    clock = time.perf_counter

    attempted = failed = 0
    setups: list[float] = []
    #: Wall time of each pass: set-up plus timed section.
    walls: list[float] = []
    outcomes = []

    def one_pass():
        """One set-up plus timed section; ``None`` if the library raised."""
        nonlocal attempted, failed
        gc.collect()
        try:
            began = clock()
            state = workload.setup()
            setup_s = clock() - began
            outcome = workload.run(state)
            walls.append(clock() - began)
            del state
        except Exception:  # a library failure fails the pass's operations
            traceback.print_exc()
            attempted += len(reference["ops"])
            failed += len(reference["ops"])
            return None
        attempted += len(outcome.ops)
        failed += workloads.check(outcome, reference)
        setups.append(setup_s)
        return outcome

    try:
        import_s = _import_seconds(workload.imports)
        deadline = clock() + seconds
        while (outcome := one_pass()) is not None:
            if not outcomes:
                # The first pass runs on a fresh allocator; later passes
                # reuse its freed-but-kept memory, so their high-water
                # mark depends on fragmentation rather than on the work.
                rss_mb = _peak_rss_mb()
            outcomes.append(outcome)
            if clock() >= deadline:
                break
        if not outcomes:
            raise SystemExit(f"perfbench: every {name} pass raised")
        while len(setups) < MIN_SETUPS:
            gc.collect()
            began = clock()
            state = workload.setup()
            setups.append(clock() - began)
            del state

        if trace:
            spans = tracing.Tracer()
            workloads.instrument(spans)
            workload.tracer = spans
            try:
                traced = one_pass()
            finally:
                workload.tracer = None
                spans.close()
            if traced is None:
                raise SystemExit(f"perfbench: the traced {name} pass raised")
            pass_ms = walls[-1] * 1e3
            spans.write(OUT / f"{name}-seed{seed}.spans.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    timed = [o.timed_s for o in outcomes]
    op_ms = [ms for o in outcomes for ms in o.op_ms]
    last = outcomes[-1]
    info = {
        "workload": name,
        "seed": seed,
        "input_seed": input_seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "passes": len(outcomes),
        "op_samples": len(op_ms),
        "setup_samples": len(setups),
        "import_s": import_s,
        **last.info,
    }
    if trace:
        untraced_ms = statistics.median(timed) * 1e3
        metrics = workloads.layer_metrics(spans, pass_ms)
        metrics["trace.pass_wall"] = _metric(pass_ms, "ms")
        metrics["trace.timed_wall"] = _metric(traced.timed_s * 1e3, "ms")
        metrics["trace.untraced_timed_wall"] = _metric(untraced_ms, "ms")
        metrics["trace.overhead"] = _metric(traced.timed_s * 1e3 / untraced_ms, "ratio")
        info["trace_overhead"] = metrics["trace.overhead"]["value"]
    else:
        metrics = {
            "setup_s": _metric(import_s + statistics.median(setups), "s"),
            "run_s": _metric(statistics.median(timed), "s"),
            "op_p50_ms": _metric(statistics.median(op_ms), "ms"),
            "peak_rss_mb": _metric(rss_mb, "MB"),
            "servers_mean": _metric(last.servers_mean, "count"),
            "energy_proxy_ghz": _metric(last.energy_proxy_ghz, "GHz"),
        }
    print(json.dumps({"info": info}))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _run_all(args) -> int:
    """Every workload in its own child process; prints a combined summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            status = done.returncode
            combined["correct"] = False
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"workload seed (default {DEFAULT_SEED}); inputs come from seed mod 16",
    )
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be non-negative and --seconds positive")
    configure_environment()
    if args.workload == "all":
        return _run_all(args)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for metric, entry in result["metrics"].items():
        print(f"{metric:>32} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
