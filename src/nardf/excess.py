"""Excess-distortion probability machinery.

For the BSMS joint chain: Hoeffding-type and reversible-chain concentration
bounds, the Markov large-deviations rate function (Perron root of the tilted
chain), and empirical exceedance simulation of the uncoded transmission on
the two-state lumped chain.

For the Gaussian realization: the steady-state reproduction-error recursion
and a Monte Carlo Chernoff exponent for P(S_n/n >= d).

Exponents and rate functions are in nats; convert with BITS_PER_NAT for
display.  Exceedance uses the ">= n d" convention throughout (the strict
and non-strict forms coincide a.s. for continuous thresholds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .bsms import BsmsDesign, JointChain, joint_chain, optimal_reproduction
from .errors import DomainError, NumericError
from .gauss import GaussModel, RealizationSolution
from .numerics import (RngStream, logsumexp, maximize_concave_1d, perron_eigenvalue,
                       solve_discrete_lyapunov, sym_eig)

__all__ = [
    "hoeffding_constants",
    "hoeffding_bound",
    "reversible_bound",
    "is_reversible",
    "second_eigenvalue",
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
    """exp(-lambda^2 (n gamma - 2/lambda)^2 / (2n)) on P(S_n/n >= D + gamma)."""
    if gamma <= 0.0 or n < 1:
        raise DomainError("hoeffding_bound: gamma > 0 and n >= 1 required")
    if abs(chain.mean_distortion - design.D) > 1e-9:
        raise DomainError("hoeffding_bound: chain/design pair is inconsistent")
    lam = hoeffding_constants(design)
    if lam <= 0.0 or n * gamma <= 2.0 / lam:
        raise DomainError(
            "hoeffding_bound: undefined below the validity threshold n > 2/(lambda*gamma)"
        )
    return math.exp(-(lam**2) * (n * gamma - 2.0 / lam) ** 2 / (2.0 * n))


def is_reversible(chain: JointChain, tol=1e-10):
    """Detailed balance pi(i) Pi(j,i) = pi(j) Pi(i,j) within tol."""
    pi = chain.stationary
    flow = chain.pi_matrix * pi[None, :]  # flow[j, i] = pi_i P(j|i)
    return float(np.max(np.abs(flow - flow.T))) <= tol


def second_eigenvalue(chain: JointChain):
    """Second-largest eigenvalue of a reversible chain, via the symmetric
    similarity D_pi^{-1/2} Pi D_pi^{1/2} (Pi column-stochastic here)."""
    if not is_reversible(chain):
        raise DomainError("second_eigenvalue: chain is not reversible")
    pi = chain.stationary
    if np.any(pi <= 0.0):
        raise DomainError("second_eigenvalue: stationary vector must be positive")
    rt = np.sqrt(pi)
    S = chain.pi_matrix * (rt[None, :] / rt[:, None])
    spectrum, _ = sym_eig(0.5 * (S + S.T))
    return float(spectrum[1])


def reversible_bound(chain: JointChain, n, gamma):
    """exp(-2 ((1-lam0)/(1+lam0)) n gamma^2) with lam0 = max(0, lambda_2);
    requires a reversible chain."""
    if gamma <= 0.0 or n < 1:
        raise DomainError("reversible_bound: gamma > 0 and n >= 1 required")
    lam0 = max(0.0, second_eigenvalue(chain))
    return math.exp(-2.0 * ((1.0 - lam0) / (1.0 + lam0)) * n * gamma * gamma)


def lumped_distortion_chain(chain: JointChain, tol=1e-12) -> JointChain:
    """Collapse a joint chain onto the distortion classes {f=0}, {f=1}.

    S_n depends on the joint chain only through the indicator process, so
    when the chain is lumpable for this partition (the optimal BSMS chain
    always is) the two-state lump carries the full exceedance problem --
    and being a two-state chain it is automatically reversible, which the
    four-state chain generally is not.
    """
    f = np.asarray(chain.f, dtype=float)
    classes = [np.flatnonzero(f == v) for v in (0.0, 1.0)]
    if any(c.size == 0 for c in classes) or classes[0].size + classes[1].size != f.size:
        raise DomainError("lumped_distortion_chain: f must be 0/1 with both values present")
    P = np.asarray(chain.pi_matrix, dtype=float)
    T = np.empty((2, 2))
    for j, src in enumerate(classes):
        for i, dst in enumerate(classes):
            mass = P[np.ix_(dst, src)].sum(axis=0)  # class mass out of each source state
            if float(mass.max() - mass.min()) > tol:
                raise DomainError(
                    "lumped_distortion_chain: chain is not lumpable for the distortion partition"
                )
            T[i, j] = float(mass.mean())
    pi = np.asarray(chain.stationary, dtype=float)
    stat = np.array([float(pi[c].sum()) for c in classes])
    return JointChain(
        states=((0, 0), (0, 1)),
        pi_matrix=T,
        stationary=stat,
        f=np.array([0.0, 1.0]),
    )


def _log_perron_tilted(chain: JointChain, lam):
    # log rho(Pi_lam) for an array of tilts, one stacked eigensolve; the log
    # is math.log per root, whose rounding does not depend on the array size
    tilt = np.exp(np.asarray(lam)[..., None] * chain.f)
    rho = perron_eigenvalue(chain.pi_matrix * tilt[..., :, None])
    return np.reshape([math.log(r) for r in np.ravel(rho)], np.shape(rho))


def rate_function(chain: JointChain, theta):
    """Large-deviations rate I(theta) = sup_lam {lam*theta - log rho(Pi_lam)}
    in nats, with Pi_lam(j,i) = Pi(j,i) e^{lam f(j)}, lam in [-50, 50] to
    1e-9.  Returns (I, lam*): floats for a scalar theta, arrays shaped like
    theta otherwise (every theta in one golden section)."""
    theta = np.asarray(theta, dtype=float)
    if not np.all((theta >= 0.0) & (theta <= 1.0)):
        raise DomainError("rate_function: theta must lie in [0, 1]")
    lam_star, val = maximize_concave_1d(
        lambda lam: lam * theta - _log_perron_tilted(chain, lam),
        np.full(theta.shape, -50.0), 50.0, tol=1e-9,
    )
    val = np.where(val < 0.0, 0.0, val)
    return (float(val), lam_star) if theta.ndim == 0 else (val, lam_star)


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


_BLOCKS = 16
_CHUNK_BYTES = 1 << 20  # one _lockstep_draws chunk, all blocks together


def _trial_blocks(rng: RngStream, trials):
    """(generator, size) per block: trials split as evenly as possible over
    at most _BLOCKS blocks, block i drawing from rng.shard(i)."""
    blocks = min(_BLOCKS, trials)
    for i in range(blocks):
        yield rng.shard(i).generator(), trials // blocks + (1 if i < trials % blocks else 0)


def _lockstep_draws(rng: RngStream, trials, n, draw, rows=(), first=None):
    """The _trial_blocks streams drawn in lockstep, joined on the trial
    (last) axis: draw(g, first + (size,)) once if `first` is given, then n
    arrays of shape rows + (trials,), one per step.

    Each block draws a chunk of c steps in one call, into a (c,) + rows +
    (size,) buffer, which consumes its stream in the order of c single-step
    draws, so every trial sees the draws of the block-at-a-time loop.  A
    chunk of all blocks holds about _CHUNK_BYTES, whatever n is.  The
    buffers are reused from chunk to chunk (fresh ones per chunk cost a page
    fault per 4 KiB at large trial counts), so a step's array is only valid
    until the next one is asked for."""
    blocks = list(_trial_blocks(rng, trials))
    if first is not None:
        yield np.concatenate([draw(g, first + (size,)) for g, size in blocks], axis=-1)
    chunk = min(n, max(1, _CHUNK_BYTES // (8 * trials * math.prod(rows))))
    parts = [np.empty((chunk,) + rows + (size,)) for _, size in blocks]
    joined = np.empty((chunk,) + rows + (trials,))
    for start in range(0, n, chunk):
        c = min(chunk, n - start)
        for (g, _), part in zip(blocks, parts):
            draw(g, out=part[:c])
        yield from np.concatenate([part[:c] for part in parts], axis=-1, out=joined[:c])


def simulate_excess_bsms(p, D, n, d, trials, rng: RngStream):
    """Empirical P(S_n/n >= d) for the uncoded BSMS transmission.  S_n sees
    the joint chain only through the Hamming indicator, so the two-state
    lumped chain is sampled from its stationary distribution and its visits
    to the mismatch state are counted over n steps, all trials in lockstep."""
    if n < 1 or trials < 1:
        raise DomainError("simulate_excess_bsms: n >= 1 and trials >= 1 required")
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
    """Steady-state recursion of the filter error e_bar = Z - Zhat:

        e_bar' = A_tilde e_bar + B1 W - B2 V - B3 Vc

    (B2, B3 as displayed enter with minus signs; covariances are unaffected).
    cov is the stationary covariance, equal to the realization's Sigma_inf.
    """

    A_tilde: np.ndarray = field(repr=False)
    B1: np.ndarray = field(repr=False)
    B2: np.ndarray = field(repr=False)
    B3: np.ndarray = field(repr=False)
    noise_cov: np.ndarray = field(repr=False)
    cov: np.ndarray = field(repr=False)
    spectral_radius: float


def gaussian_error_recursion(
    model: GaussModel, solution: RealizationSolution
) -> GaussianErrorRecursion:
    A, B, N = model.A, model.B, model.N
    E, eta = solution.E_inf, solution.eta
    Ebar = E.T @ (eta[:, None] * E)
    G = solution.gain
    A_tilde = A - G @ Ebar @ model.C
    B1 = B
    B2 = G @ Ebar @ N if N.shape[1] else np.zeros((A.shape[0], 0))
    B3 = G @ E.T @ np.diag(solution.b_inf)
    radius = float(np.max(np.abs(np.linalg.eigvals(A_tilde))))
    if radius >= 1.0:
        raise NumericError("gaussian_error_recursion: unstable error recursion")
    noise = B1 @ B1.T + (B2 @ B2.T if B2.shape[1] else 0.0) + B3 @ (solution.q[:, None] * B3.T)
    noise = 0.5 * (noise + noise.T)
    cov = solve_discrete_lyapunov(A_tilde, noise)
    if float(np.max(np.abs(cov - solution.Sigma_inf))) > 1e-8:
        raise NumericError(
            "gaussian_error_recursion: stationary covariance does not match Sigma_inf"
        )
    return GaussianErrorRecursion(
        A_tilde=A_tilde,
        B1=B1,
        B2=B2,
        B3=B3,
        noise_cov=noise,
        cov=cov,
        spectral_radius=radius,
    )


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


def _simulate_distortion_sums(model, solution, rec, n, trials, rng):
    m, k, p, d = model.dims
    C, N = model.C, model.N
    E, eta, b_inf = solution.E_inf, solution.eta, solution.b_inf
    shrink = eta - 1.0  # (H - I) diagonal in the decorrelated basis
    sq = np.sqrt(solution.q)
    chol = np.linalg.cholesky(rec.cov + 1e-15 * np.eye(m))
    A_t, B1, B2, B3 = rec.A_tilde, rec.B1, rec.B2, rec.B3
    # per step, in stream order: W (k rows), V (d rows), Vc (p rows)
    normals = _lockstep_draws(rng, trials, n, np.random.Generator.standard_normal,
                              rows=(k + d + p,), first=(m,))
    e = chol @ next(normals)
    S = np.zeros(trials)
    for z in normals:
        W, V = z[:k], z[k:k + d]
        Vc = sq[:, None] * z[k + d:]
        K = C @ e + (N @ V if d else 0.0)
        err = shrink[:, None] * (E @ K) + b_inf[:, None] * Vc
        S += np.sum(err * err, axis=0)
        e = A_t @ e + B1 @ W - (B2 @ V if d else 0.0) - B3 @ Vc
    return S


def gaussian_chernoff_exponent(
    model: GaussModel,
    solution: RealizationSolution,
    d,
    n,
    trials,
    rng: RngStream,
    lambda_grid=None,
    ess_min=100.0,
    batches=10,
) -> ChernoffEstimate:
    """Monte Carlo Chernoff exponent sup_{lambda>0} {lambda d - (1/n) log
    E e^{lambda S_n}} for S_n the n-step reproduction-error sum.

    Tilts whose empirical effective sample size falls below ess_min are
    discarded; the returned exponent carries a batch-based standard error.
    """
    if d <= 0.0 or n < 1 or trials < batches:
        raise DomainError("gaussian_chernoff_exponent: invalid d, n, or trials")
    rec = gaussian_error_recursion(model, solution)
    delta_max = float(np.max(solution.delta))
    if lambda_grid is None:
        if delta_max <= 0.0:
            raise DomainError("gaussian_chernoff_exponent: degenerate allocation")
        lambda_grid = np.linspace(0.0, 0.9 / (2.0 * delta_max), 25)[1:]
    lams = np.asarray(lambda_grid, dtype=float)
    if np.any(lams <= 0.0):
        raise DomainError("gaussian_chernoff_exponent: tilts must be positive")

    S = _simulate_distortion_sums(model, solution, rec, n, trials, rng)
    logT = math.log(trials)
    keep, mgf_log, ess_vals = [], [], []
    for lam in lams:
        ls = lam * S
        lse1 = float(logsumexp(ls))
        lse2 = float(logsumexp(2.0 * ls))
        ess = math.exp(2.0 * lse1 - lse2)
        if ess >= ess_min:
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
