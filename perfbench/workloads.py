"""The benchmark's three workloads, built from a seed.

Each workload is a fixed cycle of op kinds.  Cycle ``c`` runs one fresh
instance of every kind, in order, whose parameters (p, D, model matrices,
RngStream seeds) are drawn from (workload seed, kind, c); drawing anew each
cycle averages the cost of the inputs over the run.  An op is a timed call
into nardf's public API plus an untimed check of its result against an
independent route: a closed form, an exact dynamic programme computed here,
a second library path, or an in-process capture of the CLI.  Inputs and
references are made before the cycle starts and are never timed.

Why these workloads (recorded in BENCHMARK.json too):
  analytic-curves  closed-form curves and fixed points; numerics, bsms, gauss
                   and the analytic side of excess/jscc do the work.  No
                   Monte Carlo.
  monte-carlo      the jscc/excess simulators do the work.  Solves and the
                   analytic references are made with the inputs, untimed, so
                   water-filling, Perron roots and golden sections carry no
                   load here.
  cli              one `python -m nardf.cli` process per op: interpreter
                   start, import, argparse, small compute and output.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
import subprocess
import sys
import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

WORKLOADS = ("analytic-curves", "monte-carlo", "cli")
CLI_TIMEOUT_S = 120.0

# the 2x2 model of the acceptance tests (criterion 08)
ACCEPTANCE_MODEL = dict(
    A=[[0.6, 0.2], [0.0, 0.5]],
    B=[[1.0, 0.0], [0.0, 1.0]],
    C=[[1.0, 0.0], [0.3, 0.9]],
    N=[[0.4, 0.0], [0.0, 0.4]],
)
MAX_RATE_LOSS = 0.214418


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    out_bytes: int = 0  # bytes a CLI op prints


@dataclass
class Workload:
    """Op kinds with their makers: ``make(g, index) -> Op`` draws the
    instance of cycle ``index`` from the generator ``g``."""

    name: str
    seed: int
    makers: dict
    # ops of the traced run when they differ from the timed ones (cli)
    traced_makers: dict = None
    cleanup: Callable[[], None] = field(default=lambda: None)
    notes: dict = field(default_factory=dict)

    def cycle(self, index, traced=False):
        makers = self.traced_makers if traced and self.traced_makers else self.makers
        return [make(_rng(self.seed, kind, index), index) for kind, make in makers.items()]


def _rng(seed, kind, index):
    # one stream per (kind, cycle), so adding a kind does not shift the others
    return np.random.default_rng([int(seed), zlib.crc32(kind.encode()), int(index)])


def _seed_of(g):
    return int(g.integers(0, 2**31 - 1))


# Twenty runs of a workload make ~10^4 Monte Carlo checks.  At the acceptance
# tests' 4 SE about one of them would fail by chance; at 6 SE (a t-tail with
# 63 degrees of freedom, as for 64 shard means) the chance that any fails is
# about 1e-3.
Z_CHECK = 6.0


def within(estimate, target, se, rel=0.01):
    """|estimate - target| <= max(rel |target|, Z_CHECK SE)."""
    return abs(estimate - target) <= max(rel * abs(target), Z_CHECK * se)


# ---------------------------------------------------------------- references


def lumped_tail(T, pi, n, k):
    """Exact P(S_n >= k), S_n the number of visits to state 1 in n steps of
    the two-state chain with column-stochastic T (T[next, prev]) started from
    pi.  Forward recursion over (state, count), O(n^2)."""
    a0 = np.zeros(n + 1)
    a1 = np.zeros(n + 1)
    a0[0], a1[1] = pi[0], pi[1]
    for _ in range(n - 1):
        into1 = T[1, 0] * a0 + T[1, 1] * a1
        a0 = T[0, 0] * a0 + T[0, 1] * a1
        a1 = np.concatenate(([0.0], into1[:-1]))
    return float(a0[k:].sum() + a1[k:].sum())


def chi2_grid_exponent(lams, d, D):
    """Exact sup over the given tilts of lam d - Lambda(lam) for an IID
    N(0, D) error, where Lambda(lam) = -0.5 log(1 - 2 lam D) at every n."""
    lams = np.asarray(lams, dtype=float)
    return max(0.0, float(np.max(lams * d + 0.5 * np.log1p(-2.0 * lams * D))))


def _stable_model(nardf, g, m):
    A = g.normal(size=(m, m))
    A *= g.uniform(0.5, 0.8) / float(np.max(np.abs(np.linalg.eigvals(A))))
    B = np.eye(m) + 0.3 * g.normal(size=(m, m))
    C = np.eye(m) + 0.3 * g.normal(size=(m, m))
    N = np.diag(g.uniform(0.2, 0.8, m))
    return nardf.GaussModel(A=A, B=B, C=C, N=N)


def _d_grid(g, model, count=8):
    total = float(np.trace(model.C @ model.C.T) + np.trace(model.N @ model.N.T))
    return np.sort(g.uniform(0.1, 0.8, count)) * total


# ---------------------------------------------------------- analytic-curves


def _bsms_table(nardf, g):
    p = g.uniform(0.1, 0.4)
    grid = np.linspace(0.0025, 0.4975, 200)

    def run():
        rna = [nardf.rna_bsms(p, D) for D in grid]
        gray = [nardf.classical_gray(p, D) for D in grid]
        loss = [nardf.rate_loss_bound(p, D) for D in grid]
        return np.array(rna), gray, np.array(loss)

    def check(res):
        rna, gray, loss = res
        monotone = bool(np.all(np.diff(rna) <= 1e-12))
        exact = [(r, v, l) for r, (v, ok), l in zip(rna, gray, loss) if ok]
        dominates = all(r >= v - 1e-12 and l >= r - v - 1e-12 for r, v, l in exact)
        return monotone and dominates

    return Op("bsms-table", run, check)


def _gauss_scalar(nardf, g):
    a, c = g.uniform(-0.9, 0.9), g.uniform(0.5, 2.0)
    sw, sv = g.uniform(0.5, 2.0), g.uniform(0.1, 1.0)
    model = nardf.GaussModel.scalar(a, sw, c, sv)
    var_x = c * c * sw * sw / (1.0 - a * a) + sv * sv
    ds = np.linspace(0.05, 0.9, 8) * var_x
    cubic = [nardf.rna_scalar_partially_observed(a, c, sw, sv, D) for D in ds]

    def run():
        return [nardf.solve_realization(model, D).rate for D in ds]

    def check(rates):
        return max(abs(r - e) for r, e in zip(rates, cubic)) <= 1e-7

    return Op("gauss-scalar", run, check)


def _gauss_vector(nardf, kind, model, ds):
    def run():
        out = []
        for D in ds:
            sol = nardf.solve_realization(model, D)
            out.append((sol, nardf.match_power(sol)))
        return out

    def check(out):
        for sol, pm in out:
            target = float(sol.spectrum.sum()) if sol.saturated else sol.D
            if abs(float(sol.delta.sum()) - target) > 1e-9 * max(1.0, target):
                return False
            active = sol.delta > 0.0
            per_channel = 0.5 * np.sum(np.log2(1.0 + pm.allocation[active] / sol.q[active]))
            if abs(per_channel - sol.rate) > 1e-9 or pm.capacity < sol.rate - 1e-12:
                return False
        return True

    return Op(kind, run, check)


def _rate_function(nardf, g):
    p, D = g.uniform(0.2, 0.4), g.uniform(0.05, 0.15)
    chain = nardf.joint_chain(nardf.optimal_reproduction(p, D))
    lumped = nardf.lumped_distortion_chain(chain)
    thetas = np.linspace(D, 1.0, 19)

    def run():
        return (nardf.rate_function_curve(chain, thetas).values,
                nardf.rate_function_curve(lumped, thetas).values)

    def check(res):
        full, lump = res
        return bool(
            np.max(np.abs(full - lump)) <= 1e-8
            and full[0] <= 1e-6
            and np.all(np.diff(full) >= -1e-12)
            and np.all(np.diff(full, 2) >= -1e-8)
        )

    return Op("rate-function", run, check)


def _excess_bounds(nardf, g):
    p, D, gamma = g.uniform(0.25, 0.35), g.uniform(0.08, 0.12), g.uniform(0.08, 0.12)
    design = nardf.optimal_reproduction(p, D)
    chain = nardf.joint_chain(design)
    lumped = nardf.lumped_distortion_chain(chain)
    n0 = 2.0 / (nardf.hoeffding_constants(design) * gamma)
    ns = [int(math.ceil(n0 * f)) for f in (1.05, 1.5, 2.0, 3.0, 4.0, 6.0)]

    def run():
        rows = [(nardf.hoeffding_bound(chain, design, n, gamma),
                 nardf.reversible_bound(lumped, n, gamma)) for n in ns]
        return rows, nardf.exceedance_exponent(chain, D + gamma)

    def check(res):
        rows, exponent = res
        return all(r <= h for h, r in rows) and 0.0 < exponent < math.inf

    return Op("excess-bounds", run, check)


def rate_loss_max_op(nardf, expected=MAX_RATE_LOSS):
    def run():
        return nardf.max_rate_loss()

    def check(res):
        return abs(res[2] - expected) <= 1e-6

    return Op("rate-loss-max", run, check)


def build_analytic(nardf, seed, root):
    model2 = nardf.GaussModel(**{k: np.array(v) for k, v in ACCEPTANCE_MODEL.items()})

    def drawn(g, index):
        model = _stable_model(nardf, g, 3 + index % 2)
        return _gauss_vector(nardf, "gauss-vector-drawn", model, _d_grid(g, model))

    makers = {
        "bsms-table": lambda g, i: _bsms_table(nardf, g),
        "gauss-scalar": lambda g, i: _gauss_scalar(nardf, g),
        "gauss-vector-2x2": lambda g, i: _gauss_vector(
            nardf, "gauss-vector-2x2", model2, _d_grid(g, model2)),
        "gauss-vector-drawn": drawn,
        "rate-function": lambda g, i: _rate_function(nardf, g),
        "excess-bounds": lambda g, i: _excess_bounds(nardf, g),
        "rate-loss-max": lambda g, i: rate_loss_max_op(nardf),
    }
    return Workload("analytic-curves", seed, makers)


# -------------------------------------------------------------- monte-carlo

SCALAR_STEPS = 200_000
VECTOR_STEPS = 50_000
SK_USES, SK_TRIALS = 8, 100_000
CHERNOFF_N, CHERNOFF_TRIALS = 200, 10_000
CHERNOFF_MGF_TOL = 5e-3 * math.sqrt(50_000 / CHERNOFF_TRIALS)  # nats per step
TYPICAL_N, TYPICAL_GAMMA, TYPICAL_TRIALS = 200, 0.05, 20_000
RARE_N, RARE_GAMMA, RARE_TRIALS = 2000, 0.1, 2_500


def _jscc_scalar(nardf, g, mode):
    stream = nardf.RngStream(_seed_of(g))
    sw, svc, P = g.uniform(0.5, 1.5), g.uniform(0.5, 1.5), g.uniform(0.5, 3.0)
    if mode == "iid":
        make = lambda: nardf.design_iid_scalar(sw, svc, P)  # noqa: E731
    else:
        alpha = g.uniform(-0.8, 0.8)
        design_fn = nardf.design_feedback_scalar if mode == "fb" else nardf.design_nofeedback_scalar
        make = lambda: design_fn(alpha, sw, svc, P)  # noqa: E731

    def run():
        design = make()
        return design, nardf.simulate_scalar(design, SCALAR_STEPS, stream)

    def check(res):
        design, rep = res
        return (within(rep.distortion, design.D_min, rep.distortion_se)
                and within(rep.power, design.P, rep.power_se))

    return Op(f"jscc-{mode}", run, check)


def _jscc_vector(nardf, g):
    stream = nardf.RngStream(_seed_of(g))
    model = _stable_model(nardf, g, 2)
    D = float(g.uniform(0.2, 0.6) * np.trace(model.C @ model.C.T + model.N @ model.N.T))
    sol = nardf.solve_realization(model, D)
    alloc = nardf.match_power(sol).allocation

    def run():
        return nardf.simulate_vector(model, sol, VECTOR_STEPS, stream)

    def check(rep):
        # sum(delta) is D, or the whole innovation spectrum when D saturates it
        return within(rep.distortion, float(sol.delta.sum()), rep.distortion_se) and all(
            within(e, a, se)
            for e, a, se in zip(rep.per_channel_power, alloc, rep.per_channel_power_se)
        )

    return Op("jscc-vector", run, check)


def _sk(nardf, g):
    stream = nardf.RngStream(_seed_of(g))
    sx, svc, P = g.uniform(0.5, 2.0), g.uniform(0.5, 1.5), g.uniform(0.5, 2.0)

    def run():
        return nardf.schalkwijk_kailath(sx, svc, P, SK_USES, stream, trials=SK_TRIALS)

    def check(res):
        return all(within(e, a, se) for e, a, se in
                   zip(res.empirical_mse, res.analytic_mse, res.empirical_se))

    return Op("sk", run, check)


def _chernoff(nardf, g):
    # alpha = 0: the reproduction error is IID N(0, D), so the log-MGF per
    # step is -0.5 log(1 - 2 lam D) at every n.  The check is the unit
    # tests' one on the log-MGF at the kept tilts, which also bounds the
    # error of the sup; its tolerance is scaled from their 5e4 trials to
    # these 1e4.  (Within max(1%, Z SE) of the exponent would fail: the
    # estimator's known bias at large tilts exceeds its batch SE.)
    stream = nardf.RngStream(_seed_of(g))
    sw = g.uniform(0.8, 1.2)
    D = g.uniform(0.4, 0.6) * sw * sw
    d = D * g.uniform(1.2, 1.4)
    model = nardf.GaussModel.scalar(0.0, sw)
    sol = nardf.solve_realization(model, D)

    def run():
        return nardf.gaussian_chernoff_exponent(
            model, sol, d, CHERNOFF_N, CHERNOFF_TRIALS, stream)

    def check(est):
        closed = -0.5 * np.log1p(-2.0 * est.lambdas * D)
        exact = chi2_grid_exponent(est.lambdas, d, D)
        return (float(np.max(np.abs(est.mgf_log - closed))) <= CHERNOFF_MGF_TOL
                and abs(est.exponent - exact) <= CHERNOFF_MGF_TOL)

    return Op("chernoff", run, check)


def excess_sim_op(nardf, kind, p, D, n, gamma, trials, stream, exact=None):
    """simulate_excess_bsms against the exact lumped-chain tail and the
    reversible-chain bound.  ``exact`` overrides the computed tail."""
    chain = nardf.joint_chain(nardf.optimal_reproduction(p, D))
    lumped = nardf.lumped_distortion_chain(chain)
    d = D + gamma
    if exact is None:
        k = int(math.ceil(n * d - 1e-9))
        exact = lumped_tail(lumped.pi_matrix, lumped.stationary, n, k)
    bound = nardf.reversible_bound(lumped, n, gamma)
    se = math.sqrt(exact * (1.0 - exact) / trials)  # binomial SE at the true value

    def run():
        return nardf.simulate_excess_bsms(p, D, n, d, trials, stream)

    def check(emp):
        return within(emp, exact, se) and emp <= bound + 3.0 * se

    return Op(kind, run, check)


def _excess(nardf, g, kind, n, gamma, trials):
    stream = nardf.RngStream(_seed_of(g))
    p, D = g.uniform(0.28, 0.32), g.uniform(0.09, 0.11)
    return excess_sim_op(nardf, kind, p, D, n, gamma, trials, stream)


def build_monte_carlo(nardf, seed, root):
    makers = {f"jscc-{mode}": (lambda g, i, mode=mode: _jscc_scalar(nardf, g, mode))
              for mode in ("fb", "nfb", "iid")}
    makers.update({
        "jscc-vector": lambda g, i: _jscc_vector(nardf, g),
        "sk": lambda g, i: _sk(nardf, g),
        "chernoff": lambda g, i: _chernoff(nardf, g),
        "excess-typical": lambda g, i: _excess(
            nardf, g, "excess-typical", TYPICAL_N, TYPICAL_GAMMA, TYPICAL_TRIALS),
        "excess-rare": lambda g, i: _excess(
            nardf, g, "excess-rare", RARE_N, RARE_GAMMA, RARE_TRIALS),
    })
    return Workload("monte-carlo", seed, makers)


# ---------------------------------------------------------------------- cli

JSCC_MODES = ("fb", "nfb", "iid", "vector", "sk")
CLI_KINDS = ("bsms-curve", "gauss-rate", *(f"jscc-sim-{m}" for m in JSCC_MODES),
             "excess", "excess-theta", "rate-loss", "rate-loss-max")
# every cycle repeats the same commands, so each seeded one runs once per cycle
SEEDED_KINDS = tuple(f"jscc-sim-{m}" for m in JSCC_MODES) + ("excess",)


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env.pop("NARDF_SEED", None)
    return env


def _model_text(model):
    m, k, p, d = model.dims
    lines = [f"m {m}", f"k {k}", f"p {p}", f"d {d}"]
    for key in ("A", "B", "C", "N"):
        mat = getattr(model, key)
        lines.append(key + " " + " ".join("%.17g" % v for v in mat.ravel()))
    return "\n".join(lines) + "\n"


def _cli_argvs(nardf, seed, workdir):
    """One argv per kind, parameters drawn from the seed; compute is kept
    small so that start-up and import dominate."""
    g = _rng(seed, "cli", 0)
    p, D = g.uniform(0.2, 0.35), g.uniform(0.05, 0.12)
    model = _stable_model(nardf, g, 2)
    path = os.path.join(workdir, "model.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_model_text(model))
    total = float(np.trace(model.C @ model.C.T + model.N @ model.N.T))
    f4 = lambda x: "%.4f" % x  # noqa: E731
    argvs = {
        "bsms-curve": ["bsms-curve", "--p", f4(p), "--d-grid", "0.02:0.42:0.02"],
        "gauss-rate": ["gauss-rate", "--model", path, "--d-grid",
                       f"{f4(0.2 * total)}:{f4(0.8 * total)}:{f4(0.2 * total)}"],
        "excess": ["excess", "--p", f4(p), "--d", f4(D), "--gamma", "0.1",
                   "--n-grid", "100:200:100", "--trials", "32"],
        "excess-theta": ["excess", "--p", f4(p), "--d", f4(D),
                         "--theta-grid", f"{f4(D)}:0.9:0.2"],
        "rate-loss": ["rate-loss", "--p", f4(p), "--d-grid", "0.05:0.45:0.05"],
        "rate-loss-max": ["rate-loss"],
    }
    for mode in JSCC_MODES:
        sim = ["jscc-sim", "--mode", mode, "--power", f4(g.uniform(0.5, 2.0))]
        if mode in ("fb", "nfb"):
            sim += ["--alpha", f4(g.uniform(-0.8, 0.8)), "--steps", "20000"]
        elif mode == "iid":
            sim += ["--steps", "20000"]
        elif mode == "sk":
            sim += ["--steps", "8", "--trials", "20000"]
        else:
            sim += ["--model", path, "--d", f4(0.4 * total), "--steps", "5000"]
        argvs[f"jscc-sim-{mode}"] = sim
    for kind in SEEDED_KINDS:
        argvs[kind] += ["--seed", str(_seed_of(g))]
    return argvs


def run_cli_inprocess(nardf, argv):
    """(exit code, stdout text) of nardf.cli.main(argv) in this process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = nardf.cli.main(list(argv))
    return code, buf.getvalue()


def build_cli(nardf, seed, root):
    src = os.path.join(root, "src")
    workdir = os.path.join(root, ".perfbench_out", f"cli-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    argvs = _cli_argvs(nardf, seed, workdir)
    env = child_env(src)
    notes = {"seeded_runs": {}}
    makers, traced_makers = {}, {}
    for kind in CLI_KINDS:
        argv = argvs[kind]
        code, text = run_cli_inprocess(nardf, argv)
        if code != 0:
            raise RuntimeError(f"set-up: nardf {' '.join(argv)} exited {code}")
        expected = text.encode("utf-8")
        child = _cli_child_op(kind, argv, expected, env, root, notes)
        inproc = _cli_inproc_op(nardf, kind, argv, expected)
        makers[kind] = lambda g, i, op=child: op
        traced_makers[kind] = lambda g, i, op=inproc: op
    return Workload("cli", seed, makers, traced_makers,
                    cleanup=lambda: shutil.rmtree(workdir, ignore_errors=True), notes=notes)


def _cli_child_op(kind, argv, expected, env, root, notes):
    cmd = [sys.executable, "-m", "nardf.cli", *argv]
    key = " ".join(argv)

    def run():
        return subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=CLI_TIMEOUT_S)

    def check(proc):
        ok = proc.returncode == 0 and proc.stdout == expected
        if ok and kind in SEEDED_KINDS:
            notes["seeded_runs"][key] = notes["seeded_runs"].get(key, 0) + 1
        return ok

    return Op(kind, run, check, len(expected))


def _cli_inproc_op(nardf, kind, argv, expected):
    def run():
        return run_cli_inprocess(nardf, argv)

    def check(res):
        code, text = res
        return code == 0 and text.encode("utf-8") == expected

    return Op(kind, run, check, len(expected))


_MAKE = {
    "analytic-curves": build_analytic,
    "monte-carlo": build_monte_carlo,
    "cli": build_cli,
}


def build(name, nardf, seed, root):
    return _MAKE[name](nardf, seed, root)
