"""End-to-end and per-layer benchmark of the loowit CLI.

Usage (from the repository root):

    python3 bench/run.py --workload analyze_large --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from the seed, measures set-up time over
several launches of the workload process (bench/worker.py, with BLAS
threads pinned to one), runs the timed closed loop in one more launch,
checks every distinct output with the reference checker (bench/reference.py)
and prints the result as JSON on the last line of stdout.  With --trace 1
the worker alternates untraced and traced cycles and the result holds the
per-layer metrics instead.  A line before it holds the full record:
environment, tail percentile, per-request-kind medians, raw timings and
failures.  Scratch files go to .bench_out/ under the repository root.

Times are reported at a reference host speed: each time is multiplied by
PROBE_REF_S / (median time of the worker's fixed probe around it).  On a
shared 2-core host the raw per-request time of the same request drifts by
up to ~30% over minutes while this ratio stays within 4-8%.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from tracing import TARGETS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_LAUNCHES = 11  # including the measured launch; the median is reported
TAIL_SAMPLES_ABOVE = 10
PROBE_REF_S = 0.012  # probe time at the reference speed (Xeon, 2.1 GHz)
PROBE_WINDOW = 2  # probes on each side of a request that set its speed


def environment(seed: int, inputs: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies")
    except TypeError:  # numpy < 1.26 has no mode argument
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_lapack": blas,
        "thread_env": {v: "1" for v in THREAD_VARS},
        "seed": seed,
        "input_bytes": inputs,
    }


def launch(plan_path: Path, env: dict, setup_only: bool, timeout: float) -> tuple[float, str]:
    """Start the worker and wait for it; returns (launch time, stdout)."""
    argv = [sys.executable, str(WORKER), "--plan", str(plan_path)] + (["--setup-only"] if setup_only else [])
    started = time.monotonic()
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"workload process exited with code {done.returncode}")
    return started, done.stdout


def tail(latencies: list[float]) -> dict:
    """Highest percentile that still has TAIL_SAMPLES_ABOVE samples above it."""
    ordered = sorted(latencies)
    index = max(0, len(ordered) - TAIL_SAMPLES_ABOVE - 1)
    return {"value": ordered[index], "percentile": 100.0 * (index + 1) / len(ordered),
            "samples": len(ordered), "samples_above": len(ordered) - index - 1}


def check_outputs(result: dict, cycle: list) -> dict[str, list[str]]:
    """Problems per output key; the checker runs here, outside any timing."""
    requests = {r.label: r for r in cycle}
    problems = {}
    for key, saved in result["outputs"].items():
        if saved["error"]:
            problems[key] = [saved["error"]]
            continue
        stdout = Path(saved["stdout"]).read_text(encoding="utf-8")
        out = Path(saved["out"]).read_text(encoding="utf-8") if saved.get("out") else ""
        problems[key] = requests[saved["label"]].check(saved["rc"], stdout, out)
    return problems


def corrected_latencies(result: dict) -> list[float]:
    """Per record, its time scaled by PROBE_REF_S / median probe time around it."""
    probes = result["probes_s"]
    out = []
    for r in result["records"]:
        j = r["probe_index"]
        window = probes[max(0, j - PROBE_WINDOW): j + PROBE_WINDOW + 1]
        out.append(r["seconds"] * PROBE_REF_S / statistics.median(window))
    return out


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, dict]:
    raw = [r["seconds"] for r in result["records"]]
    latencies = corrected_latencies(result)
    t = tail(latencies)
    metrics = {
        "latency_p50_ms": metric(1e3 * statistics.median(latencies), "ms"),
        "latency_tail_ms": metric(1e3 * t["value"], "ms"),
        "throughput_per_s": metric(len(latencies) / sum(latencies), "1/s"),
        "peak_rss_mb": metric(result["peak_rss_kb"] / 1024.0, "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
    }
    by_label: dict[str, list[float]] = {}
    for r, latency in zip(result["records"], latencies):
        by_label.setdefault(r["label"], []).append(latency)
    detail = {
        "tail": {k: v for k, v in t.items() if k != "value"},
        "raw_latency_p50_ms": 1e3 * statistics.median(raw),
        "raw_latency_tail_ms": 1e3 * tail(raw)["value"],
        "probe_median_s": statistics.median(result["probes_s"]),
        "setup_s_each": setups,
        "cycles": result["cycles"],
        "wall_seconds": result["wall_seconds"],
        "median_ms_by_request": {k: 1e3 * statistics.median(v) for k, v in by_label.items()},
    }
    return metrics, detail


def per_layer(result: dict) -> tuple[dict, dict]:
    trace = result["trace"]
    latencies = corrected_latencies(result)
    traced = [(r, t) for r, t in zip(result["records"], latencies) if r["traced"]]
    n = len(traced)
    speed = PROBE_REF_S / statistics.median(result["probes_s"])
    metrics = {}
    for target in TARGETS:
        totals = trace["totals"].get(target, {"calls": 0, "self_ns": 0})
        metrics[f"{target}.calls"] = metric(totals["calls"] / n, "count")
        metrics[f"{target}.self_ms"] = metric(speed * totals["self_ns"] / 1e6 / n, "ms")
    metrics["cli.bytes_out"] = metric(sum(result["out_bytes"][r["key"]] for r, _ in traced) / n, "B")
    p50_traced = statistics.median(t for _, t in traced)
    p50_untraced = statistics.median(t for r, t in zip(result["records"], latencies) if not r["traced"])
    metrics["trace.overhead_pct"] = metric(100.0 * (p50_traced / p50_untraced - 1.0), "%")
    detail = {k: trace[k] for k in ("absent", "defined_in", "spans")}
    detail.update(traced_requests=n, p50_traced_ms=1e3 * p50_traced, p50_untraced_ms=1e3 * p50_untraced)
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="loowit CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "loowit" / "__init__.py").is_file():
        print(f"no loowit sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = out_dir / f"run-{tag}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, run_dir)
    plan = {
        "root": str(ROOT),
        "run_dir": str(run_dir),
        "seconds": args.seconds,
        "trace": args.trace,
        "warmup": workload.warmup,
        "cycle": [{"label": r.label, "argv": r.argv, "out": r.out} for r in workload.cycle],
        "result_path": str(run_dir / "result.json"),
        "spans_path": str(out_dir / f"{args.workload}.spans.csv"),
        "spans_header": f"workload={args.workload} seed={args.seed}",
    }
    plan_path = run_dir / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})

    setups = []
    try:
        for _ in range(SETUP_LAUNCHES - 1 if args.trace == 0 else 0):
            started, stdout = launch(plan_path, env, True, timeout=60)
            ready = json.loads(stdout)
            setups.append((ready["ready"] - started) * PROBE_REF_S / ready["probe_s"])
        started, _ = launch(plan_path, env, False, timeout=args.seconds + 120)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    result = json.loads(Path(plan["result_path"]).read_text(encoding="utf-8"))
    setups.append((result["ready"] - started) * PROBE_REF_S / statistics.median(result["probes_s"][:5]))

    problems = check_outputs(result, workload.cycle)
    result["out_bytes"] = {
        key: sum(Path(saved[f]).stat().st_size for f in ("stdout", "out") if saved.get(f))
        for key, saved in result["outputs"].items()
    }
    attempted = len(result["records"])
    failed = sum(1 for r in result["records"] if problems[r["key"]])
    if args.trace:
        metrics, detail = per_layer(result)
    else:
        metrics, detail = end_to_end(result, setups)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "error_rate": failed / attempted,
        "problems": {k: v[:5] for k, v in problems.items() if v},
        "environment": environment(args.seed, workload.inputs),
        **detail,
    }
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (out_dir / f"{tag}.json").write_text(json.dumps({**record, **summary}, indent=1), encoding="utf-8")
    if failed == 0:
        shutil.rmtree(run_dir)
    print(json.dumps(record))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
