"""Benchmark of the myogest sEMG pipeline.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; myogest is imported from ``src/``
of that checkout and nothing else.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  The line before it is a JSON report of the environment,
every pass and every check.  See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS/OpenMP threads before numpy is imported.  One thread: the
# benchmark shares a small machine, and extra BLAS threads only add
# scheduling noise to the small matrices this pipeline multiplies.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 5  # set-up repeats per run; setup_s is their median
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import myogest; print(time.perf_counter() - t)"
)
COUNTS = ("nn.epochs", "nn.batches", "dataset.windows")

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "accuracy": "fraction",
    "peak_rss_mb": "MB",
    "adapt_s": "s",
    "stream_ms_p90": "ms",
}


def layer_unit(name: str) -> str:
    if name.endswith("windows_per_s"):
        return "1/s"
    if "_ms." in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "count"


def import_myogest():
    """Import myogest from this checkout's src/, or exit with an error."""
    sys.path.insert(0, str(SRC))
    try:
        import myogest
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import myogest from {SRC}: {exc}")
    if not Path(myogest.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: myogest resolved to {myogest.__file__}, outside {SRC}")
    return myogest


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def import_seconds() -> float:
    """Time of ``import myogest`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout.strip())


def percentile(values, q):
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


class Checks:
    """Counts operations and failures; every failure is kept with its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok: bool, what: str, n: int = 1, failed: int = None):
        self.attempted += n
        bad = (0 if ok else n) if failed is None else failed
        if bad:
            self.failures.append({"what": what, "failed": bad})

    @property
    def failed(self):
        return sum(f["failed"] for f in self.failures)


def set_up(workload_cls, workdir: Path, seed: int, profile: str, checks: Checks):
    """Repeat the set-up; returns (median seconds, the last workload, its hashes)."""
    from myogest import harness

    times, hashes, wl = [], [], None
    for k in range(SETUPS):
        wl = workload_cls(workdir / f"setup{k}", seed, profile)
        t_import = import_seconds()
        t0 = time.perf_counter()
        wl.write_datasets()
        times.append(t_import + time.perf_counter() - t0)
        hashes.append([harness.dataset_content_hash(d) for d in wl.datasets()])
        if k:
            shutil.rmtree(workdir / f"setup{k - 1}")
    checks.check(all(h == hashes[0] for h in hashes), "dataset hash repeats across set-ups")
    return statistics.median(times), wl, hashes[0]


def check_pass(res, first, eval_hash, floor, checks: Checks):
    for key, acc in res.cells.items():
        expected = first.cells.get(key)
        checks.check(
            acc >= floor and acc == expected,
            f"accuracy {key} = {acc} (floor {floor}, first pass {expected})",
        )
    checks.check(
        res.cells.keys() == first.cells.keys(), "same subject x seed cells as the first pass"
    )
    checks.check(all(h == eval_hash for h in res.dataset_hashes), "report dataset hash")
    checks.check(
        True, "streamed prediction equals batched predict",
        n=len(res.latencies_ms), failed=res.stream_mismatches,
    )


def measure(wl, seconds: float, trace: bool, checks: Checks, eval_hash: str):
    """Passes for ``seconds``; returns (untraced, traced, per-layer) results.

    The first pass warms the process up (allocator, lazy imports); it is
    checked like the others but not timed.  Then untraced passes (with
    ``trace``: untraced and traced in turn) repeat until the time is used,
    at least ``min_passes - 1`` of each.
    """
    from tracing import Tracer

    floor = wl.p["floor"]
    plain, traced, layers = [], [], []
    tracer = Tracer() if trace else None
    deadline = time.perf_counter() + seconds
    first = None

    def one_pass(traced_pass: bool):
        gc.collect()
        if not traced_pass:
            res = wl.run_pass()
        else:
            tracer.install()
            try:
                start = tracer.mark()
                with tracer.span("bench.pass"):
                    res = wl.run_pass()
            finally:
                tracer.uninstall()
            layers.append(tracer.layer_metrics(start))
        check_pass(res, first or res, eval_hash, floor, checks)
        return res

    first = one_pass(False)
    while True:
        plain.append(one_pass(False))
        if trace:
            traced.append(one_pass(True))
        if len(plain) >= wl.p["min_passes"] - 1:
            per_round = plain[-1].run_s + (traced[-1].run_s if trace else 0.0)
            if time.perf_counter() + per_round > deadline:
                break
    if trace:
        for m in layers[1:]:
            checks.check(
                all(m[c] == layers[0][c] for c in COUNTS),
                f"counts repeat: {[m[c] for c in COUNTS]} vs {[layers[0][c] for c in COUNTS]}",
            )
    return plain, traced, layers


def pooled(passes, field):
    return [x for p in passes for x in getattr(p, field)]


def end_to_end(setup_s, passes) -> dict:
    return {
        "setup_s": setup_s,
        "run_s": statistics.median(p.run_s for p in passes),
        "accuracy": passes[0].accuracy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # p90 of many short samples, not a median or mean: see "Bounds" in README.md
        "adapt_s": percentile(pooled(passes, "adapt_s"), 90),
        "stream_ms_p90": percentile(pooled(passes, "latencies_ms"), 90),
    }


def per_layer(plain, traced, layers) -> dict:
    out = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        out[name] = values[0] if layer_unit(name) == "count" else statistics.median(values)
    out["trace.overhead_s"] = (
        statistics.median(p.run_s for p in traced) - statistics.median(p.run_s for p in plain)
    )
    return out


def parse_args(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs, for the benchmark's self-test")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    import_myogest()
    import workloads

    args = parse_args(argv)
    checks = Checks()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        setup_s, wl, hashes = set_up(
            workloads.WORKLOADS[args.workload], workdir, args.seed, args.size, checks
        )
        plain, traced, layers = measure(wl, args.seconds, bool(args.trace), checks, hashes[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = per_layer(plain, traced, layers)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        values = end_to_end(setup_s, plain)
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    lat, cpu = pooled(plain, "latencies_ms"), pooled(plain, "cpu_ms")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "environment": environment(),
        "accuracy": plain[0].accuracy,
        "cells": {"/".join(map(str, k)): v for k, v in plain[0].cells.items()},
        "passes": {
            "untraced_run_s": [p.run_s for p in plain],
            "traced_run_s": [p.run_s for p in traced],
            "adapt_s": [p.adapt_s for p in plain],
        },
        "stream": {
            "windows": len(lat),
            "wall_ms": {q: percentile(lat, q) for q in (50, 90, 99, 100)},
            "cpu_ms": {q: percentile(cpu, q) for q in (50, 90, 99, 100)},
            "latency_limit_ms": workloads.WINDOW_PERIOD_MS,
            "over_limit": sum(x > workloads.WINDOW_PERIOD_MS for x in lat),
        },
        "error_ratio": checks.failed / checks.attempted,
        "failures": checks.failures,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
