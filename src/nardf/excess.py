"""Excess-distortion probability machinery.

For the BSMS joint chain: the Hoeffding-type bound on the chain itself; the
reversible-chain bound (lambda_2 = 1 - a - b), the Markov large-deviations
rate function and the empirical exceedance of the uncoded transmission on the
two-state lump of the chain onto its distortion classes (it must be lumpable).

For the Gaussian realization: the reproduction-error recursion as one step
matrix, the one loop that steps such a recursion from its stationary law
(shared with every Gaussian JSCC simulator in jscc), and a Monte Carlo
Chernoff exponent for P(S_n/n >= d).

Exponents and rate functions are in nats; convert with BITS_PER_NAT for
display.  Exceedance uses the ">= n d" convention throughout (the strict
and non-strict forms coincide a.s. for continuous thresholds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bsms import BsmsDesign, JointChain, joint_chain, optimal_reproduction
from .errors import DomainError, NumericError
from .gauss import GaussModel, RealizationSolution
from .numerics import (RngStream, _lockstep_draws, _sum, logsumexp, maximize_concave_1d,
                       perron_eigenvalue, solve_discrete_lyapunov, sym_eig)

__all__ = [
    "hoeffding_constants",
    "hoeffding_bound",
    "reversible_bound",
    "second_eigenvalue",
    "lumped_distortion_chain",
    "rate_function",
    "rate_function_curve",
    "exceedance_exponent",
    "RateFunctionCurve",
    "simulate_excess_bsms",
    "GaussianErrorRecursion",
    "gaussian_error_recursion",
    "ChernoffEstimate",
    "gaussian_chernoff_exponent",
]


def hoeffding_constants(design: BsmsDesign):
    """Contraction constant of the Hoeffding-type bound:
    min{p, 1-p} * min{alpha, beta, 1-alpha, 1-beta}.  The bound is defined
    for n > 2/(lambda*gamma) (with ||f|| = 1, m = 1)."""
    lam = min(design.p, 1.0 - design.p) * min(
        design.alpha, design.beta, 1.0 - design.alpha, 1.0 - design.beta
    )
    return lam


def hoeffding_bound(chain: JointChain, design: BsmsDesign, n, gamma):
    """exp(-lambda^2 (n gamma - 2/lambda)^2 / (2n)) on P(S_n/n >= D + gamma);
    0.0, its limit, at n = inf."""
    if not (gamma > 0.0 and n >= 1):  # NaN fails too
        raise DomainError("hoeffding_bound: gamma > 0 and n >= 1 required")
    if abs(chain.mean_distortion - design.D) > 1e-9:
        raise DomainError("hoeffding_bound: chain/design pair is inconsistent")
    lam = hoeffding_constants(design)
    if lam <= 0.0 or n * gamma <= 2.0 / lam:
        raise DomainError(
            "hoeffding_bound: undefined below the validity threshold n > 2/(lambda*gamma)"
        )
    if n == math.inf:  # the exponent is -inf/inf there
        return 0.0
    try:
        return math.exp(-(lam**2) * (n * gamma - 2.0 / lam) ** 2 / (2.0 * n))
    except OverflowError:  # (n gamma)^2 beyond the float range: the bound is 0
        return 0.0


def second_eigenvalue(chain: JointChain):
    """Second eigenvalue 1 - a - b of a two-state chain with column-stochastic
    Pi, a = Pi[1, 0] and b = Pi[0, 1].  DomainError for any other chain:
    lump it onto its distortion classes first (lumped_distortion_chain)."""
    T = np.asarray(chain.pi_matrix, dtype=float)
    if T.shape != (2, 2):
        raise DomainError("second_eigenvalue: two-state chain required; "
                          "lump the chain first (lumped_distortion_chain)")
    if not (np.all(T >= 0.0) and float(np.max(np.abs(T.sum(axis=0) - 1.0))) <= 1e-12):
        raise DomainError("second_eigenvalue: column-stochastic chain required")
    return 1.0 - float(T[1, 0]) - float(T[0, 1])


def reversible_bound(chain: JointChain, n, gamma):
    """exp(-2 ((1-lam0)/(1+lam0)) n gamma^2) with lam0 = max(0, lambda_2),
    for a two-state chain (every two-state chain is reversible).  A chain
    that never moves (lambda_2 = 1) has rate 0 and bound 1, also at n = inf
    or gamma = inf, where the exponent would be 0 * inf."""
    if not (gamma > 0.0 and n >= 1):  # NaN fails too
        raise DomainError("reversible_bound: gamma > 0 and n >= 1 required")
    lam0 = max(0.0, second_eigenvalue(chain))
    rate = (1.0 - lam0) / (1.0 + lam0)
    if rate == 0.0:
        return 1.0
    return math.exp(-2.0 * rate * n * gamma * gamma)


def lumped_distortion_chain(chain: JointChain) -> JointChain:
    """Collapse a joint chain onto the distortion classes {f=0}, {f=1}.

    S_n depends on the joint chain only through the indicator process, so
    when the chain is lumpable for this partition (the optimal BSMS chain
    always is) the two-state lump carries the full exceedance problem --
    and being a two-state chain it is automatically reversible, which the
    four-state chain generally is not.  A chain that already is the lump
    (f = (0, 1)) comes back with its own arrays.
    """
    f = np.asarray(chain.f, dtype=float)
    values = f.reshape(-1).tolist()
    classes = [[k for k, x in enumerate(values) if x == v] for v in (0.0, 1.0)]
    if not all(classes) or len(classes[0]) + len(classes[1]) != len(values):
        raise DomainError("lumped_distortion_chain: f must be 0/1 with both values present")
    P = np.asarray(chain.pi_matrix, dtype=float)
    pi = np.asarray(chain.stationary, dtype=float)
    if classes == [[0], [1]]:
        return JointChain(pi_matrix=P, stationary=pi, f=f)
    into = [P[dst].sum(axis=0).tolist() for dst in classes]  # class mass out of each state
    T = np.empty((2, 2))
    for j, src in enumerate(classes):
        for i in range(2):
            mass = [into[i][s] for s in src]
            if max(mass) - min(mass) > 1e-12:
                raise DomainError(
                    "lumped_distortion_chain: chain is not lumpable for the distortion partition"
                )
            T[i, j] = _sum(mass) / len(mass)  # mass.mean()
    stat = np.array([float(pi[c].sum()) for c in classes])
    return JointChain(pi_matrix=T, stationary=stat, f=np.array([0.0, 1.0]))


def _perron_lumped(T):
    # lam -> rho of the two-state chain T tilted by e^lam on state 1, with
    # a = T[1, 0], b = T[0, 1] and t11 = e^lam T[1, 1]:
    # rho = (t00 + t11 + sqrt((t00 - t11)^2 + e^lam 4ab)) / 2, no cancellation.
    # e^lam 4ab has the bits of 4 e^lam ab (scaling by 4 is exact) unless 4ab
    # overflows, and then the root is infinite at lam = 50 either way.  On
    # floats e^lam stays numpy's, as math.exp rounds differently
    t00, t11_base = float(T[0, 0]), float(T[1, 1])
    four_ab = 4.0 * (float(T[1, 0]) * float(T[0, 1]))

    def rho(lam):
        tilt = float(np.exp(lam))
        t11 = tilt * t11_base
        diff = t00 - t11
        return 0.5 * (t00 + t11 + math.sqrt(diff * diff + tilt * four_ab))

    return rho


def rate_function(chain: JointChain, theta):
    """Large-deviations rate I(theta) = sup_lam {lam*theta - log rho(Pi_lam)}
    in nats, with Pi_lam(j,i) = Pi(j,i) e^{lam f(j)}, lam in [-50, 50] to
    1e-9.  Each theta runs its own golden section on Python floats.
    Returns (I, lam*): floats for a scalar theta, arrays shaped like theta
    otherwise.  The chain must be nonnegative, finite, irreducible and
    lumpable onto {f=0}, {f=1} (else DomainError); it is checked and lumped
    once, and each step takes the lump's tilted Perron root in closed form.
    At theta = 0, the mean and 1 (lam* = -inf, 0, +inf) lam* is where the
    search stops on a flat objective.

    The tilted lump is checked for finiteness once, at lam = -50 and 50,
    not at every step: e^lam a, t00 + t11 and e^lam a b grow with lam, and
    (t00 - t11)^2 + 4 e^lam a b is convex in e^lam, so each term of the
    root is largest at an end of the bracket."""
    theta = np.asarray(theta, dtype=float)
    if not ((theta >= 0.0) & (theta <= 1.0)).all():
        raise DomainError("rate_function: theta must lie in [0, 1]")
    perron_eigenvalue(chain.pi_matrix)  # the chain's checks, once; the root is unused
    T = lumped_distortion_chain(chain).pi_matrix
    rho = _perron_lumped(T)
    with np.errstate(over="ignore", invalid="ignore"):
        ends = [(rho(lam), np.exp(lam) * T[1, 0]) for lam in (-50.0, 50.0)]
        if not all(math.isfinite(x) for end in ends for x in end):
            raise DomainError("rate_function: tilted chain is not finite")
    vals, lams = [], []
    for t in theta.reshape(-1).tolist():
        lam_star, val = maximize_concave_1d(
            lambda lam: lam * t - float(np.log(rho(lam))), -50.0, 50.0, tol=1e-9)
        vals.append(0.0 if val < 0.0 else val)
        lams.append(lam_star)
    if theta.ndim == 0:
        return vals[0], lams[0]
    return np.array(vals).reshape(theta.shape), np.array(lams).reshape(theta.shape)


def exceedance_exponent(chain: JointChain, d):
    """inf over theta in [d, inf) of I(theta): zero at or below the
    stationary mean, I(d) above it (I is nondecreasing there)."""
    if d <= chain.mean_distortion:
        return 0.0
    val, _ = rate_function(chain, min(d, 1.0))
    return val


@dataclass(frozen=True)
class RateFunctionCurve:
    thetas: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)  # nats
    lambda_star: np.ndarray = field(repr=False)


def rate_function_curve(chain: JointChain, thetas) -> RateFunctionCurve:
    thetas = np.asarray(thetas, dtype=float)
    vals, lams = rate_function(chain, thetas)
    return RateFunctionCurve(thetas=thetas, values=vals, lambda_star=lams)


def simulate_excess_bsms(p, D, n, d, trials, rng: RngStream):
    """Empirical P(S_n/n >= d) for the uncoded BSMS transmission.  S_n sees
    the joint chain only through the Hamming indicator, so the two-state
    lumped chain is sampled from its stationary distribution and its visits
    to the mismatch state are counted over n steps, all trials in lockstep."""
    if n < 1 or trials < 1:
        raise DomainError("simulate_excess_bsms: n >= 1 and trials >= 1 required")
    if math.isnan(d):  # S >= nan would count no trial and report 0
        raise DomainError("simulate_excess_bsms: threshold d is NaN")
    lump = lumped_distortion_chain(joint_chain(optimal_reproduction(p, D)))
    to_one = lump.pi_matrix[1]  # P(next in the mismatch class | current class)
    lo, hi = sorted(to_one)
    hi_state = bool(to_one[1] >= to_one[0])  # the state whose threshold is hi
    uniforms = _lockstep_draws(rng, trials, n, np.random.Generator.random)
    state = next(uniforms) < lump.stationary[1]
    S = state.astype(np.intp)
    for u in uniforms:
        # u < to_one[state] as boolean array ops, no gather over the trials
        state = (u < lo) | ((state == hi_state) & (u < hi))
        S += state
    return int(np.count_nonzero(S >= n * d - 1e-9)) / trials


@dataclass(frozen=True)
class GaussianErrorRecursion:
    """A linear recursion [e'; err; K] = step [e; draws] on a state e and
    standard normal draws, run from its stationary law N(0, cov): err is
    the reproduction error and K the encoder input.  A scalar JSCC design
    is one on e = K with draws [W; z]; gaussian_error_recursion makes the
    matched vector loop one on its filter error e = Z - Zhat:

        [e'; err; K] = step [e; W; V; z],   Vc = sqrt(q) z,

        e'  = (A - G Ebar C) e + B W - G Ebar N V - G E' diag(b_inf) sqrt(q) z
        err = (eta - 1) E (C e + N V) + b_inf sqrt(q) z
        K   = C e + N V

    with Ebar = E' diag(eta) E: err is the reproduction error and K the
    innovation, both in the decorrelated basis.  A noiseless observation
    (d = 0) is an empty block of V columns.  cov is the stationary
    covariance of e, equal to the realization's Sigma_inf: the Lyapunov
    fixed point of step[:m, :m] driven by drive = step[:m, m:].
    """

    step: np.ndarray = field(repr=False)  # (m + 2p, m + k + d + p)
    cov: np.ndarray = field(repr=False)  # (m, m)


def gaussian_error_recursion(
    model: GaussModel, solution: RealizationSolution
) -> GaussianErrorRecursion:
    if solution.closed_loop_radius >= 1.0:  # the eigenvalues of step[:m, :m]
        raise NumericError("gaussian_error_recursion: unstable error recursion")
    m, k, p, _ = model.dims
    C, N = model.C, model.N
    E, eta, G, b = solution.E_inf, solution.eta, solution.gain, solution.b_inf
    Ebar = E.T @ (eta[:, None] * E)
    sq = np.sqrt(solution.q)
    shrink = (eta - 1.0)[:, None] * E  # (H - I) E
    no_W = np.zeros((p, k))
    step = np.block([
        [model.A - G @ Ebar @ C, model.B, -(G @ Ebar @ N), -(G @ E.T @ np.diag(b)) * sq],
        [shrink @ C, no_W, shrink @ N, np.diag(b * sq)],
        [C, no_W, N, np.zeros((p, p))],
    ])
    drive = step[:m, m:]
    cov = solve_discrete_lyapunov(step[:m, :m], drive @ drive.T)
    Sigma = solution.Sigma_inf
    if float(np.max(np.abs(cov - Sigma))) > 1e-8 * float(np.max(np.abs(Sigma))):
        raise NumericError(
            "gaussian_error_recursion: stationary covariance does not match Sigma_inf"
        )
    return GaussianErrorRecursion(step=step, cov=cov)


class ChernoffEstimate(NamedTuple):
    exponent: float  # nats; sup_lambda {lambda d - Lambda_hat(lambda)}, >= 0
    exponent_se: float  # batch-based standard error
    lambda_star: float
    lambdas: np.ndarray  # grid points that passed the stability guard
    mgf_log: np.ndarray  # (1/n) log E e^{lambda S_n} estimates on `lambdas`
    ess: np.ndarray
    trials: int
    n: int
    seed: int
    stream_id: int


def _error_steps(rec: GaussianErrorRecursion, n, trials, rng):
    """`trials` independent chains of rec in lockstep, each started from the
    stationary law N(0, rec.cov) and run for n steps.  Yields per step the
    encoder input K and the reproduction error err, each (p, trials) and
    valid until the next step is asked for.  Each step is one product of
    rec.step with the stacked state and draws."""
    m = rec.cov.shape[0]
    rows, cols = rec.step.shape
    p = (rows - m) // 2
    w, V = sym_eig(rec.cov)  # cut at 0: noise on a subspace leaves cov singular
    root = V.T * np.sqrt(np.maximum(w, 0.0))
    # per step, in stream order: W (k rows), V (d rows), z (p rows); e_0 first
    normals = _lockstep_draws(rng, trials, n, np.random.Generator.standard_normal,
                              rows=(cols - m,), first=(m,))
    e0 = root @ next(normals)  # the first draw checks the counts before any allocation
    x = np.empty((cols, trials))
    out = np.empty((rows, trials))
    x[:m] = e0
    err, K = out[m:m + p], out[m + p:]
    for z in normals:
        x[m:] = z
        np.matmul(rec.step, x, out=out)
        x[:m] = out[:m]
        yield K, err


def gaussian_chernoff_exponent(
    model: GaussModel,
    solution: RealizationSolution,
    d,
    n,
    trials,
    rng: RngStream,
) -> ChernoffEstimate:
    """Monte Carlo Chernoff exponent sup_{lambda>0} {lambda d - (1/n) log
    E e^{lambda S_n}} for S_n the n-step reproduction-error sum.

    The tilts are lambda = k * 0.9 / (48 max delta), k = 1..24.  Tilts
    whose empirical effective sample size falls below 100 are discarded;
    the exponent's standard error is taken over 10 strided batches of the
    trials, so at least 10 trials are needed.
    """
    batches = 10
    if not 0.0 < d < math.inf or n < 1 or trials < batches:  # NaN fails too
        raise DomainError("gaussian_chernoff_exponent: invalid d, n, or trials")
    rec = gaussian_error_recursion(model, solution)
    delta_max = float(np.max(solution.delta))
    if delta_max <= 0.0:
        raise DomainError("gaussian_chernoff_exponent: degenerate allocation")
    lams = np.linspace(0.0, 0.9 / (2.0 * delta_max), 25)[1:]

    err2 = 0.0  # (p, trials) from the first step, after the draws have checked `trials`
    for _, err in _error_steps(rec, n, trials, rng):
        err2 += err * err
    S = np.sum(err2, axis=0)
    logT = math.log(trials)
    keep, mgf_log, ess_vals = [], [], []
    for lam in lams:
        ls = lam * S
        lse1 = float(logsumexp(ls))
        lse2 = float(logsumexp(2.0 * ls))
        ess = math.exp(2.0 * lse1 - lse2)
        if ess >= 100.0:
            keep.append(lam)
            mgf_log.append((lse1 - logT) / n)
            ess_vals.append(ess)
    if not keep:
        raise NumericError("gaussian_chernoff_exponent: no stable tilt on the grid")
    keep = np.array(keep)
    mgf_log = np.array(mgf_log)
    vals = keep * d - mgf_log
    best = int(np.argmax(vals))
    exponent = max(0.0, float(vals[best]))

    # batch band: re-estimate the exponent on fixed strided batches S[b::batches]
    batch_vals = []
    for b in range(batches):
        Sb = S[b::batches]
        lse1 = logsumexp(np.outer(keep, Sb), axis=1)
        vb = keep * d - (lse1 - math.log(Sb.size)) / n
        batch_vals.append(max(0.0, float(np.max(vb))))
    se = float(np.std(batch_vals, ddof=1) / math.sqrt(batches))
    return ChernoffEstimate(
        exponent=exponent,
        exponent_se=se,
        lambda_star=float(keep[best]),
        lambdas=keep,
        mgf_log=mgf_log,
        ess=np.array(ess_vals),
        trials=trials,
        n=n,
        seed=rng.seed,
        stream_id=rng.stream_id,
    )
