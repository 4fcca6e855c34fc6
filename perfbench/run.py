"""End-to-end benchmark of the nardf toolkit.

    python3 perfbench/run.py --workload analytic-curves --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory and nowhere else.  One client runs ops in a closed loop:
the next op starts when the previous one has returned, and a `cli` op is
one child process at a time.  BLAS/OpenMP pools are pinned to one thread,
here and in every child.

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
``--trace 1`` alternates untraced and traced passes over the same ops and
reports the per-layer metrics from the traced ones, plus the tracing
overhead (traced wall / untraced wall); its spans are written to
``.perfbench_out/spans-<workload>.jsonl``.

Every op is checked; the last stdout line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it name
every metric with its unit, the per-op breakdown and the provenance.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in children
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 3
MIN_CYCLES = 2  # so every seeded CLI command runs at least twice
TAIL_BEYOND = 10

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def import_library():
    """Import nardf (and nardf.cli) from this checkout's src/ only."""
    if not (SRC / "nardf" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no nardf sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nardf
    import nardf.cli  # noqa: F401  (the cli layer)

    if Path(nardf.__file__).resolve().parent != SRC / "nardf":
        raise SystemExit(f"perfbench: nardf imported from {nardf.__file__}, not {SRC}")
    return nardf


# ------------------------------------------------------------------ running


class Tally:
    """Attempted and failed ops, with the first few failures for the log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run(self, op, before=None, after=None):
        """Run and check one op; return its wall time in seconds.

        ``before``/``after`` bracket only the library call, so the check
        is never timed or traced.
        """
        self.attempted += 1
        error = None
        if before:
            before()
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a failed op is counted, the run goes on
            error = exc
        elapsed = time.perf_counter() - t0
        if after:
            after()
        if error is None:
            try:
                if not op.check(result):
                    error = "check failed"
            except Exception as exc:
                error = exc
        if error is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{op.kind}: {error!r}")
        return elapsed


def timed_run(workload, seconds, tally, warm=True):
    """Closed loop over whole cycles until ``seconds`` have passed.

    Returns [(kind, seconds)] for every timed op.  No tracer is installed.
    """
    if warm:  # one untimed cycle: lazy imports and first-call costs
        for op in workload.cycle(0):
            tally.run(op)
    samples = []
    start = time.perf_counter()
    cycle = 0
    while cycle < MIN_CYCLES or time.perf_counter() - start < seconds:
        for op in workload.cycle(cycle):
            samples.append((op.kind, tally.run(op)))
        cycle += 1
    return samples


def tail(values):
    """The highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile, sample count)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def setup_times(workload, seed):
    """Wall time of SETUP_REPEATS fresh processes that import nardf, build the
    workload and the first cycle's inputs and references (the CLI captures,
    on cli), then exit."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=170)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-800:]}")
    return times


def end_to_end(nardf, workload, args, tally):
    samples = timed_run(workload, args.seconds, tally, warm=workload.name != "cli")
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux
    setups = setup_times(workload.name, args.seed)  # after: keeps cli's peak RSS clean

    durations = [d for _, d in samples]
    tail_s, tail_pct, n = tail(durations)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(durations) / sum(durations),
        "op_p50_ms": statistics.median(durations) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    by_kind = {}
    for kind, d in samples:
        by_kind.setdefault(kind, []).append(d)
    details = {
        "op_tail": {"percentile": round(tail_pct, 2), "samples": n},
        "setup_runs_s": setups,
        "ops": {k: {"count": len(v), "p50_ms": statistics.median(v) * 1e3}
                for k, v in by_kind.items()},
    }
    if workload.name == "cli":
        runs = workload.notes["seeded_runs"]
        details["seeded_commands_min_runs"] = min(runs.values()) if runs else 0
    return {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, details


def traced(nardf, workload, args, tally):
    # imported here: the timed run never loads the tracer
    import perlayer
    from tracing import Tracer

    tracer = Tracer(perlayer.attr_hooks(nardf))
    for op in workload.cycle(0, traced=True):  # warm, untraced
        tally.run(op)

    def start():
        tracer.recording = True

    def stop():
        tracer.recording = False

    untraced_wall = traced_wall = 0.0
    passes = out_bytes = 0
    begin = time.perf_counter()
    while passes < 1 or time.perf_counter() - begin < args.seconds:
        ops = workload.cycle(passes, traced=True)
        untraced_wall += sum(tally.run(op) for op in ops)
        tracer.install()
        try:
            traced_wall += sum(tally.run(op, start, stop) for op in ops)
        finally:
            tracer.uninstall()
        out_bytes += sum(op.out_bytes for op in ops)
        passes += 1

    metrics = perlayer.from_spans(tracer.spans, tracer.self_times(), passes)
    metrics["cli.output_bytes"] = out_bytes / passes
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    metrics.update(perlayer.cli_probes(workloads.child_env(SRC), ROOT))

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for rec in tracer.records():
            fh.write(json.dumps(rec) + "\n")
    units = perlayer.metric_units()
    details = {"passes": passes, "spans": len(tracer.spans),
               "spans_file": str(spans_path.relative_to(ROOT)),
               "untraced_pass_s": untraced_wall / passes,
               "traced_pass_s": traced_wall / passes}
    return {k: (metrics[k], units[k][0]) for k in units}, details


# --------------------------------------------------------------- provenance


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(nardf, args):
    import numpy

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nardf": nardf.__version__, "git_commit": _git_commit(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": version("scipy"), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
    }


# --------------------------------------------------------------------- main


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload and exit (times set-up)")
    args = parser.parse_args(argv)

    nardf = import_library()
    workload = workloads.build(args.workload, nardf, args.seed, str(ROOT))
    try:
        if args.setup_only:
            workload.cycle(0)  # inputs and references of the first cycle
            return 0
        tally = Tally()
        measure = traced if args.trace else end_to_end
        listed, details = measure(nardf, workload, args, tally)
    finally:
        workload.cleanup()

    for name, (value, unit) in listed.items():
        note = " (p{percentile} of {samples} ops)".format(**details["op_tail"]) \
            if name == "op_tail_ms" else ""
        print(f"{name} {value:.6g} {unit}{note}")
    print(f"op_error_rate {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} of {tally.attempted} ops failed)")
    print(json.dumps({"details": details}))
    print(json.dumps({"provenance": provenance(nardf, args)}))
    for failure in tally.failures:
        print(f"perfbench: failed op {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in listed.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
