"""Per-layer metrics from a traced run, and the CLI start-up probes.

Every metric here has an entry in BENCHMARK.json's ``per_layer`` list with
the same name and unit.  Counts and times are per traced pass (one cycle of
the workload's ops), so runs of different length compare directly.
"""

from __future__ import annotations

import inspect
import statistics
import subprocess
import sys
import time

from tracing import LAYERS

CALLS_AND_SELF = (
    "gauss.reverse_waterfill",
    "jscc.capacity_waterfill",
    "numerics.sym_eig",
    "numerics.perron_eigenvalue",
    "numerics.maximize_concave_1d",
    "excess.rate_function",
    "numerics.bisect_monotone",
)
SELF_ONLY = (
    "bsms.rna_bsms",
    "bsms.classical_gray",
    "bsms.rate_loss_bound",
    "bsms.max_rate_loss",
    "excess.simulate_excess_bsms",
    "excess.gaussian_chernoff_exponent",
    "excess.gaussian_error_recursion",
    "jscc.simulate_scalar",
    "jscc.simulate_vector",
    "jscc.schalkwijk_kailath",
    "modelfile.load_model",
)
CALLS_ONLY = ("numerics.RngStream.generator",)

# gaussian_chernoff_exponent's default tilt grid: linspace(0, lam_max, 25)[1:]
DEFAULT_CHERNOFF_TILTS = 24

PROBE_REPEATS = 3


def _bound(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


def attr_hooks(nardf):
    """Span attributes the metrics need, read from arguments and results."""
    excess_args = _bound(nardf.excess.simulate_excess_bsms)
    chernoff_args = _bound(nardf.excess.gaussian_chernoff_exponent)

    def solve(args, kwargs, sol):
        m, _, p, _ = sol.model.dims
        return {"m": m, "p": p, "iterations": int(sol.iterations)}

    def excess_sim(args, kwargs, fraction):
        a = excess_args(args, kwargs)
        return {"trials": a["trials"], "steps": a["n"] * a["trials"],
                "hits": round(fraction * a["trials"])}

    def chernoff(args, kwargs, est):
        grid = chernoff_args(args, kwargs).get("lambda_grid")
        return {"kept": len(est.lambdas),
                "grid": DEFAULT_CHERNOFF_TILTS if grid is None else len(grid)}

    def samples(args, kwargs, report):
        report = report[0] if isinstance(report, tuple) else report
        return {"samples": int(report.samples)}

    return {
        "gauss.solve_realization": solve,
        "excess.simulate_excess_bsms": excess_sim,
        "excess.gaussian_chernoff_exponent": chernoff,
        "jscc.simulate_scalar": samples,
        "jscc.simulate_vector": samples,
    }


def metric_units():
    """Every per-layer metric name with its unit and better direction."""
    units = {}
    for name in CALLS_AND_SELF:
        units[f"{name}.calls"] = ("count/pass", "lower")
        units[f"{name}.self_ms"] = ("ms/pass", "lower")
    for name in SELF_ONLY:
        units[f"{name}.self_ms"] = ("ms/pass", "lower")
    for name in CALLS_ONLY:
        units[f"{name}.calls"] = ("count/pass", "lower")
    units.update({
        "gauss.solve_realization.scalar.p50_us": ("us", "lower"),
        "gauss.solve_realization.vector.p50_us": ("us", "lower"),
        "gauss.solve_realization.iterations": ("count/pass", "lower"),
        "excess.simulate_excess_bsms.trial_steps_per_s": ("1/s", "higher"),
        "excess.simulate_excess_bsms.hit_ratio": ("ratio", "higher"),
        "excess.gaussian_chernoff_exponent.kept_tilt_ratio": ("ratio", "higher"),
        "jscc.simulate_scalar.samples_per_s": ("1/s", "higher"),
        "jscc.simulate_vector.samples_per_s": ("1/s", "higher"),
        "cli.interp_ms": ("ms", "lower"),
        "cli.import_ms": ("ms", "lower"),
        "cli.import_scipy_ms": ("ms", "lower"),
        "cli.main.inproc_ms": ("ms", "lower"),
        "cli.output_bytes": ("bytes/pass", "lower"),
    })
    for layer in LAYERS:
        units[f"layer.{layer}.self_ms"] = ("ms/pass", "lower")
    units["trace.overhead_ratio"] = ("ratio", "lower")
    return units


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def _p50(values):
    return statistics.median(values) if values else 0.0


def from_spans(spans, self_times, passes):
    """Per-layer metrics of ``passes`` traced passes, except the probes."""
    calls, selfs, by_name = {}, {}, {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for span, st in zip(spans, self_times):
        calls[span.name] = calls.get(span.name, 0) + 1
        selfs[span.name] = selfs.get(span.name, 0.0) + st
        by_name.setdefault(span.name, []).append(span)
        layer_self[span.name.split(".", 1)[0]] += st

    out = {}
    for name in CALLS_AND_SELF + CALLS_ONLY:
        out[f"{name}.calls"] = calls.get(name, 0) / passes
    for name in CALLS_AND_SELF + SELF_ONLY:
        out[f"{name}.self_ms"] = selfs.get(name, 0.0) * 1e3 / passes

    solves = by_name.get("gauss.solve_realization", [])
    for shape, scalar in (("scalar", True), ("vector", False)):
        out[f"gauss.solve_realization.{shape}.p50_us"] = _p50(
            [s.duration * 1e6 for s in solves
             if (s.attrs["m"] == s.attrs["p"] == 1) is scalar])
    out["gauss.solve_realization.iterations"] = sum(
        s.attrs["iterations"] for s in solves) / passes

    sims = by_name.get("excess.simulate_excess_bsms", [])
    out["excess.simulate_excess_bsms.trial_steps_per_s"] = _ratio(
        sum(s.attrs["steps"] for s in sims), sum(s.duration for s in sims))
    out["excess.simulate_excess_bsms.hit_ratio"] = _ratio(
        sum(s.attrs["hits"] for s in sims), sum(s.attrs["trials"] for s in sims))

    ests = by_name.get("excess.gaussian_chernoff_exponent", [])
    out["excess.gaussian_chernoff_exponent.kept_tilt_ratio"] = _ratio(
        sum(s.attrs["kept"] for s in ests), sum(s.attrs["grid"] for s in ests))

    for name in ("jscc.simulate_scalar", "jscc.simulate_vector"):
        reps = by_name.get(name, [])
        out[f"{name}.samples_per_s"] = _ratio(
            sum(s.attrs["samples"] for s in reps), sum(s.duration for s in reps))

    out["cli.main.inproc_ms"] = _p50([s.duration * 1e3 for s in by_name.get("cli.main", [])])
    for layer, value in layer_self.items():
        out[f"layer.{layer}.self_ms"] = value * 1e3 / passes
    return out


# ------------------------------------------------------------------ probes


def _wall(cmd, env, cwd):
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=cwd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"probe {cmd[1:]} failed: {proc.stderr.strip()[-500:]}")
    return elapsed, proc.stderr


def parse_importtime(text):
    """(ms importing nardf, ms of scipy's own modules) from -X importtime."""
    nardf_us = scipy_us = 0
    for line in text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        top_level = not name.startswith("   ")  # one space, then nesting
        name = name.strip()
        if top_level and (name == "nardf" or name.startswith("nardf.")):
            nardf_us += int(cumulative_us)
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += int(self_us)
    return nardf_us / 1e3, scipy_us / 1e3


def cli_probes(env, cwd):
    """Interpreter start and the import cost of `python -m nardf.cli`, each
    the median of PROBE_REPEATS fresh processes."""
    interp, imports, scipy_ms = [], [], []
    for _ in range(PROBE_REPEATS):
        interp.append(_wall([sys.executable, "-c", "pass"], env, cwd)[0] * 1e3)
        _, err = _wall([sys.executable, "-X", "importtime", "-c", "import nardf.cli"], env, cwd)
        nardf_ms, sp_ms = parse_importtime(err)
        imports.append(nardf_ms)
        scipy_ms.append(sp_ms)
    return {
        "cli.interp_ms": statistics.median(interp),
        "cli.import_ms": statistics.median(imports),
        "cli.import_scipy_ms": statistics.median(scipy_ms),
    }
