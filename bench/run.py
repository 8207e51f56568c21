#!/usr/bin/env python3
"""Benchmark of the elastoscan CLI, driven in-process through ``elastoscan.cli.main``.

    python3 bench/run.py --workload forward-io --seed 1 --seconds 58 --trace 0

Run from a source checkout (``src/elastoscan`` next to ``bench/``).  One run:

1. set-up: ``setup_s`` is the median time for a fresh interpreter to import
   ``elastoscan.cli`` and build the workload's preset;
2. warm-up: the workload once at tiny scale (imports, BLAS threads), untimed;
3. the window: the workload's CLI calls repeated while another repetition is
   expected to end within ``--seconds``; ``wall_s`` is the mean time of a
   repetition, the window's total call time over the repetitions made, so
   that each of the few long ones counts.  With ``--trace 1`` repetitions
   alternate untraced and traced, and the traced ones give the per-layer
   metrics (see ``tracing.py``) and the tracing overhead;
4. checks: every repetition exits 0 and writes byte-identical outputs, and
   the first one's outputs pass ``checks.py``.

Every set-up sample and every CLI call is timed at the reference host speed of
``reference.py``: its wall time scaled by how much slower than nominal a fixed
reference task ran just before and just after it.  The unscaled times are in
the detail line.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}`` with
the end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``);
the line before it holds the fingerprint, the quality values and any problem.
``--workload all`` runs every workload in turn.  Outputs go to ``.bench_work/``
in the checkout and are removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread: on the shared 2-core host a second BLAS thread speeds the
# workloads up by about 12% but makes their times spread several times wider,
# because each product waits for the slower of two contended cores.  This must
# be set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from reference import HostClock  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 5            # fresh interpreters per run, after one discarded sample
MAX_OPS = 100

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}

_SETUP_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import elastoscan.cli as cli\n"
    "cli.build_preset(sys.argv[1], small=True)\n"
    "print(time.perf_counter() - t)\n"
)


@dataclass
class Op:
    wall: float                      # at reference host speed
    raw_wall: float                  # as measured
    ok: bool
    traced: bool
    spans: list = field(default_factory=list)
    bytes_written: int = 0


def measure_setup(preset: str, clock: HostClock, samples: int = SETUP_SAMPLES):
    """Median set-up time at reference host speed, and as measured."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times, raw = [], []
    for _ in range(samples + 1):
        res = subprocess.run([sys.executable, "-c", _SETUP_CODE, preset], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True, timeout=60)
        raw.append(float(res.stdout.strip().splitlines()[-1]))
        times.append(clock.scale(raw[-1]))
    return statistics.median(times[1:]), statistics.median(raw[1:])


def run_calls(calls, after_call=None) -> bool:
    """Run CLI calls in order; False at the first one that does not exit 0.

    ``after_call``, if given, receives each call's wall time once it returns.
    """
    from elastoscan.cli import main as cli_main

    with contextlib.redirect_stdout(sys.stderr):
        for argv in calls:
            t0 = time.perf_counter()
            try:
                rc = cli_main(argv)
            except Exception:                 # an uncaught error is a failed call
                traceback.print_exc()
                rc = 1
            if after_call is not None:
                after_call(time.perf_counter() - t0)
            if rc != 0:
                print(f"bench: {' '.join(argv)} exited {rc}", file=sys.stderr)
                return False
    return True


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    """One benchmark run of one workload; returns the result record."""
    import checks
    from tracing import LAYER_UNITS, Tracer, layer_metrics
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer()
    try:
        clock = HostClock()
        setup_s, raw_setup_s = measure_setup(wl.preset, clock, 1 if tiny else SETUP_SAMPLES)
        run_calls(wl.calls(str(work / "warmup"), seed, True, str(work)))
        clock.resample()

        ops: list[Op] = []
        problems: list[str] = []
        ref_dir, ref_digest = None, None
        rep_s: list[float] = []           # a repetition with its reference runs and checks
        start = time.perf_counter()
        while True:
            traced = trace and len(ops) % 2 == 1
            out = work / f"op{len(ops)}"
            calls = wl.calls(str(out), seed, tiny, str(work))
            if traced:
                tracer.reset()
                tracer.install()
            rep_start = time.perf_counter()
            raw, scaled = [], []

            def timed(call_s: float) -> None:   # the reference runs between calls
                raw.append(call_s)
                scaled.append(clock.scale(call_s))

            try:
                ok = run_calls(calls, timed)
            finally:
                tracer.uninstall()
            op = Op(sum(scaled), sum(raw), ok, traced,
                    list(tracer.spans) if traced else [],
                    checks.tree_bytes(out) if out.exists() else 0)
            ops.append(op)
            if op.ok and ref_dir is None:
                ref_dir, ref_digest = out, checks.digest_tree(out)
            else:
                if op.ok and checks.digest_tree(out) != ref_digest:
                    op.ok = False
                    problems.append(f"repetition {len(ops)} wrote different outputs")
                shutil.rmtree(out, ignore_errors=True)
            rep_s.append(time.perf_counter() - rep_start)
            elapsed = time.perf_counter() - start
            enough = len(ops) >= (2 if trace else 1)
            if enough and (elapsed + _median(rep_s) > seconds
                           or len(ops) >= MAX_OPS):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        report = checks.Report()
        if ref_dir is not None:
            try:
                report = wl.check(str(ref_dir), seed, gates=not tiny)
            except Exception as exc:          # a crashing check is a failed check
                traceback.print_exc()
                report.problems.append(f"check raised {exc!r}")
            if report.problems:               # every ok repetition wrote these outputs
                for op in ops:
                    op.ok = False
        problems += report.problems
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):    # left alone while another run uses it
            WORK.rmdir()

    attempted = len(ops)
    failed = sum(not o.ok for o in ops)
    if trace:
        plain = [o.wall for o in ops if not o.traced]
        traced_ops = [o for o in ops if o.traced]
        per_op = [layer_metrics(o.spans, o.raw_wall, o.bytes_written) for o in traced_ops]
        values = {k: _median([m[k] for m in per_op]) for k in per_op[0]}
        values["indicators.csv_valid_frac"] = (report.csv_strict_rows / report.csv_rows
                                               if report.csv_rows else 0.0)
        values["trace.overhead_frac"] = (_median([o.wall for o in traced_ops])
                                         / _median(plain) - 1.0)
        units = LAYER_UNITS
    else:
        values = {"wall_s": statistics.fmean(o.wall for o in ops), "setup_s": setup_s,
                  "peak_rss_mb": peak_rss_mb, "ok_frac": (attempted - failed) / attempted}
        units = END_TO_END_UNITS
    detail = {
        "workload": name, "seed": seed, "trace": int(trace), "repetitions": attempted,
        "wall_s_each": [round(o.wall, 4) for o in ops],
        "raw_wall_s": _median([o.raw_wall for o in ops]),
        "raw_wall_s_each": [round(o.raw_wall, 4) for o in ops],
        "raw_setup_s": raw_setup_s, "reference_s": _median(clock.refs),
        "fail_frac": failed / attempted, "checks": report.values, "problems": problems[:20],
    }
    if trace:
        detail["untraced_targets"] = tracer.missing
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        "detail": detail,
    }


def _blas_threads():
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def fingerprint() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((SRC / "elastoscan").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
        "src_sha256": src.hexdigest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=58.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="m=8, n=64, 9x9 grid, quality gates off (smoke tests)")
    args = ap.parse_args(argv)
    if not (SRC / "elastoscan" / "cli.py").is_file():
        print(f"bench: no elastoscan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    fp = fingerprint()
    results = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace), args.tiny)
        res["detail"]["fingerprint"] = fp
        print(json.dumps(res.pop("detail")), flush=True)
        results[name] = res
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
