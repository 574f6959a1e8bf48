"""Workload process: one client, closed loop, every request through
`loowit.cli.main(argv)` in-process.

Started by run.py with the BLAS thread variables pinned.  It imports the
library from the checkout's `src`, runs one untimed warm-up request, then
(unless --setup-only) runs whole cycles of the plan's requests until the
plan's seconds have passed.  stdout and stderr of each request go to files,
so capturing a large output costs the workload no extra memory.  Outputs
are not checked here; each distinct output is saved for run.py to check.
Between requests, at most every PROBE_EVERY_S, it times a fixed probe so
that run.py can correct the latencies for the host's speed drift.

Usage: python3 bench/worker.py --plan PLAN.json [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

PROBE_EVERY_S = 0.3


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(b"\0file\0")
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


class Probe:
    """A fixed ~13 ms mix of the program's numeric work: full SVDs, the
    expectation and rotation einsums, and many tiny SVD/eigvalsh calls.

    On a shared host the speed of one core drifts by up to a third over
    minutes; the probe's time drifts with it, so latency / probe time is
    steady where latency alone is not.  Pure-interpreter work (JSON parsing
    or dumping) drifted more than the workloads in calibration runs and
    over-corrected them, so it is left out.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.complex64 = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self.real128 = rng.standard_normal((128, 128))
        self.tensor = rng.standard_normal((8, 8, 8, 8))
        self.basis = rng.standard_normal((64, 8, 8))
        self.rotation = rng.standard_normal((100, 100))
        self.observables = rng.standard_normal((100, 10, 10)) + 0j
        self.tiny = rng.standard_normal((9, 9))

    def __call__(self) -> float:
        start = time.perf_counter()
        np.linalg.svd(self.complex64)
        np.linalg.svd(self.real128)
        np.einsum("ijkl,aki,blj->ab", self.tensor, self.basis, self.basis, optimize=True)
        np.einsum("kl,lij->kij", self.rotation, self.observables)
        for _ in range(100):
            np.linalg.svd(self.tiny, compute_uv=False)
            np.linalg.eigvalsh(self.tiny)
        return time.perf_counter() - start


class Client:
    def __init__(self, cli_module, run_dir: Path):
        self.cli = cli_module
        self.stdout_path = run_dir / "stdout.txt"
        self.stderr_path = run_dir / "stderr.txt"
        self.outputs_dir = run_dir / "outputs"
        self.outputs_dir.mkdir(exist_ok=True)
        self.outputs: dict[str, dict] = {}

    def call(self, argv: list[str]) -> tuple[int | None, str | None, float]:
        """One request; returns (exit code, error, seconds).  Only the
        cli.main call and the final flush of its stdout are timed."""
        error = None
        with open(self.stdout_path, "w", encoding="utf-8") as out, \
                open(self.stderr_path, "w", encoding="utf-8") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc, error = None, f"SystemExit({exc.code!r})"
            except Exception:
                rc, error = None, traceback.format_exc(limit=8)
            out.flush()
            elapsed = time.perf_counter() - start
        return rc, error, elapsed

    def keep_output(self, request: dict, rc, error) -> str:
        """Save the output the first time it is seen; return its key."""
        files = [self.stdout_path] + ([Path(request["out"])] if request["out"] else [])
        files = [f for f in files if f.exists()]
        key = f"{request['label']}:{rc}:{error is not None}:{_digest(files)}"
        if key not in self.outputs:
            n = len(self.outputs)
            saved = {"label": request["label"], "rc": rc, "error": error}
            saved["stdout"] = str(shutil.copyfile(self.stdout_path, self.outputs_dir / f"{n}.stdout"))
            saved["stderr"] = str(shutil.copyfile(self.stderr_path, self.outputs_dir / f"{n}.stderr"))
            if request["out"]:
                out = Path(request["out"])
                saved["out"] = str(shutil.copyfile(out, self.outputs_dir / f"{n}.out")) if out.exists() else None
            self.outputs[key] = saved
        return key


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    src = Path(plan["root"]) / "src"
    sys.path.insert(0, str(src))
    from loowit import cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"loowit imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    run_dir = Path(plan["run_dir"])
    client = Client(cli, run_dir)
    client.call(plan["warmup"])
    ready = time.monotonic()
    probe = Probe()
    probes = [(time.monotonic(), probe()) for _ in range(5)]
    if args.setup_only:
        print(json.dumps({"ready": ready, "probe_s": statistics.median([p for _, p in probes])}))
        return 0

    tracer = None
    if plan["trace"]:
        from tracing import Tracer

        tracer = Tracer()
    records = []
    cycles = 0
    min_cycles = 2 if tracer else 1
    start = time.monotonic()
    while cycles < min_cycles or time.monotonic() - start < plan["seconds"]:
        traced = tracer is not None and cycles % 2 == 1
        if traced:
            tracer.install()
        for request in plan["cycle"]:
            if traced:
                tracer.request = len(records)
            if time.monotonic() - probes[-1][0] >= PROBE_EVERY_S:
                probes.append((time.monotonic(), probe()))
            rc, error, elapsed = client.call(request["argv"])
            key = client.keep_output(request, rc, error)
            records.append({"label": request["label"], "seconds": elapsed, "traced": traced, "key": key,
                            "probe_index": len(probes) - 1})
        if traced:
            tracer.uninstall()
        cycles += 1
    wall = time.monotonic() - start
    probes.append((time.monotonic(), probe()))

    result = {
        "ready": ready,
        "cycles": cycles,
        "wall_seconds": wall,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "records": records,
        "probes_s": [p for _, p in probes],
        "outputs": client.outputs,
    }
    if tracer:
        result["trace"] = {
            "totals": tracer.totals(),
            "absent": tracer.absent,
            "defined_in": tracer.defined_in,
            "spans": len(tracer.spans),
        }
        tracer.write(plan["spans_path"], plan["spans_header"])
    Path(plan["result_path"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
