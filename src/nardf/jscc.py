"""Zero-delay JSCC designs over AWGN channels matched to the
nonanticipative RDF: capacity water-filling, distortion-power matching,
scalar feedback / no-feedback / IID encoder-decoder gains, the full vector
realization, the Schalkwijk-Kailath scheme, and Monte Carlo verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError, NumericError
from .gauss import GaussModel, RealizationSolution, rna_scalar_fully_observed
from .numerics import RngStream, solve_discrete_lyapunov, water_level

__all__ = [
    "PowerMatch",
    "JsccScalarDesign",
    "SimulationReport",
    "SkResult",
    "capacity_waterfill",
    "match_power",
    "matched_channel_noise",
    "design_feedback_scalar",
    "design_nofeedback_scalar",
    "design_iid_scalar",
    "min_steps_with_se",
    "simulate_scalar",
    "simulate_vector",
    "schalkwijk_kailath",
]


def capacity_waterfill(noise_vars, P):
    """Water-filling capacity of parallel AWGN channels.

    Returns (C in bits/use, allocation P*_i = max(0, nu - q_i)) with the
    level nu at which the allocation sums to P: sum_i max(0, nu - q_i) = P
    is sum_i min(-nu, -q_i) = -(P + sum q), an exact water level.
    """
    q = np.asarray(noise_vars, dtype=float).reshape(-1)
    if q.size == 0 or np.any(q <= 0.0) or not np.all(np.isfinite(q)):
        raise DomainError("capacity_waterfill: noise variances must be positive")
    if not 0.0 < P < math.inf:
        raise DomainError("capacity_waterfill: power must be positive and finite")
    if q.size == 1:
        return 0.5 * math.log2(1.0 + P / q[0]), np.array([float(P)])
    level = -water_level(-q, -(P + float(q.sum())))
    active = q < level
    nu = (P + float(q[active].sum())) / int(active.sum())
    alloc = np.maximum(0.0, nu - q)
    if abs(float(alloc.sum()) - P) > 1e-12 * max(P, 1.0):
        raise NumericError("capacity_waterfill: allocation does not meet P")
    cap = float(0.5 * np.sum(np.log2(1.0 + alloc / q)))
    return cap, alloc


class PowerMatch(NamedTuple):
    P: float
    allocation: np.ndarray  # per-channel P*_i, zeros on saturated coordinates
    capacity: float  # bits/use, water-filled over the active coordinates
    matched: bool  # capacity equals the realization rate within 1e-10


def match_power(solution: RealizationSolution) -> PowerMatch:
    """Per-channel transmit power P*_i = q_i (lambda_i/delta_i - 1) that
    realizes the solution's distortion over the AWGN channel.

    The capacity of the active channels at total power P is compared with
    the realization rate; `matched` records whether they agree to 1e-10
    (true automatically for one active coordinate or matched_channel_noise).
    """
    lam, delta, q = solution.spectrum, solution.delta, solution.q
    alloc = np.where(delta > 0.0, q * (lam - delta) / np.where(delta > 0.0, delta, 1.0), 0.0)
    P = float(alloc.sum())
    if P <= 0.0:
        return PowerMatch(P=0.0, allocation=np.zeros_like(lam), capacity=0.0, matched=True)
    active = alloc > 0.0
    cap, _ = capacity_waterfill(q[active], P)
    return PowerMatch(
        P=P,
        allocation=alloc,
        capacity=cap,
        matched=abs(cap - solution.rate) <= 1e-10,
    )


def matched_channel_noise(solution: RealizationSolution, scale=1.0):
    """Channel-noise diagonal q_i = scale * delta_i/lambda_i under which the
    capacity water-filling reproduces match_power's allocation exactly, so
    C(P) equals the realization rate."""
    if scale <= 0.0:
        raise DomainError("matched_channel_noise: scale must be positive")
    lam, delta = solution.spectrum, solution.delta
    return np.where(lam > 0.0, scale * delta / np.where(lam > 0.0, lam, 1.0), scale)


@dataclass(frozen=True)
class JsccScalarDesign:
    """Scalar source-channel design with constant gains.

    encoder_gain scales the encoder input (the innovation K_t in feedback
    mode, the source X_t otherwise); decoder_gain is the MMSE scaling of the
    channel output.  capacity is the channel capacity 0.5 log2(1 + P/q);
    matched_rate is the source rate at D_min, equal to capacity.
    """

    mode: str
    alpha: float
    sigma_W: float
    sigma_Vc: float
    P: float
    encoder_gain: float
    decoder_gain: float
    D_min: float
    capacity: float
    matched_rate: float
    source_var: float
    input_var: float  # variance of the encoder input at steady state


def _check_scalar_params(alpha, sigma_W, sigma_Vc, P):
    # each test passes only on valid input; NaN fails every comparison
    if not abs(alpha) < 1.0:
        raise DomainError("requires |alpha| < 1")
    if not (0.0 < sigma_W < math.inf and 0.0 < sigma_Vc < math.inf):
        raise DomainError("sigma_W and sigma_Vc must be positive and finite")
    if not 0.0 <= P < math.inf:
        raise DomainError("power must be nonnegative and finite")


def design_feedback_scalar(alpha, sigma_W, sigma_Vc, P) -> JsccScalarDesign:
    """Feedback design: the innovation X_t - E[X_t | B^{t-1}] is scaled onto
    the channel; achieves D_min = sW^2 sVc^2 / ((1-a^2) sVc^2 + P)."""
    _check_scalar_params(alpha, sigma_W, sigma_Vc, P)
    a2 = alpha * alpha
    sW2 = sigma_W * sigma_W
    q = sigma_Vc * sigma_Vc
    D_min = sW2 * q / ((1.0 - a2) * q + P)
    enc = math.sqrt(P * ((1.0 - a2) * q + P) / (sW2 * (q + P))) if P > 0.0 else 0.0
    dec = math.sqrt(sW2 * P / (((1.0 - a2) * q + P) * (q + P))) if P > 0.0 else 0.0
    cap = 0.5 * math.log2(1.0 + P / q)
    matched = rna_scalar_fully_observed(alpha, sigma_W, D_min)
    input_var = a2 * D_min + sW2  # innovation variance Lambda_inf
    design = JsccScalarDesign(
        mode="feedback",
        alpha=alpha,
        sigma_W=sigma_W,
        sigma_Vc=sigma_Vc,
        P=P,
        encoder_gain=enc,
        decoder_gain=dec,
        D_min=D_min,
        capacity=cap,
        matched_rate=matched,
        source_var=sW2 / (1.0 - a2),
        input_var=input_var,
    )
    _assert_matched(design)
    return design


def design_nofeedback_scalar(alpha, sigma_W, sigma_Vc, P) -> JsccScalarDesign:
    """Memoryless design: X_t itself is scaled onto the channel; achieves
    D_min = sW^2 sVc^2 / ((1-a^2)(P + sVc^2)).

    The matched source rate here is the per-letter form
    0.5 log2(sigma_X^2 / D) with sigma_X^2 = sW^2/(1-a^2), which equals the
    channel capacity at D_min.
    """
    _check_scalar_params(alpha, sigma_W, sigma_Vc, P)
    a2 = alpha * alpha
    sW2 = sigma_W * sigma_W
    q = sigma_Vc * sigma_Vc
    source_var = sW2 / (1.0 - a2)
    D_min = sW2 * q / ((1.0 - a2) * (P + q))
    enc = math.sqrt((1.0 - a2) * P / sW2)
    dec = math.sqrt(sW2 / ((1.0 - a2) * P)) * P / (P + q) if P > 0.0 else 0.0
    cap = 0.5 * math.log2(1.0 + P / q)
    matched = 0.5 * math.log2(source_var / D_min)
    design = JsccScalarDesign(
        mode="no-feedback",
        alpha=alpha,
        sigma_W=sigma_W,
        sigma_Vc=sigma_Vc,
        P=P,
        encoder_gain=enc,
        decoder_gain=dec,
        D_min=D_min,
        capacity=cap,
        matched_rate=matched,
        source_var=source_var,
        input_var=source_var,
    )
    _assert_matched(design)
    return design


def design_iid_scalar(sigma_X, sigma_Vc, P) -> JsccScalarDesign:
    """IID source (alpha = 0): feedback and no-feedback designs coincide."""
    base = design_nofeedback_scalar(0.0, sigma_X, sigma_Vc, P)
    return replace(base, mode="iid")


def _assert_matched(design: JsccScalarDesign):
    if design.P > 0.0:
        if abs(design.matched_rate - design.capacity) > 1e-12 * max(design.capacity, 1.0):
            raise NumericError("scalar design: rate at D_min does not equal capacity")
        if abs(design.encoder_gain**2 * design.input_var - design.P) > 1e-12 * max(design.P, 1.0):
            raise NumericError("scalar design: encoder input power does not equal P")


@dataclass(frozen=True)
class SimulationReport:
    """Monte Carlo summary; means carry shard-based standard errors.

    Vector runs also report per-coordinate distortion in the decorrelated
    basis (targets delta_i), per-channel input power (targets P*_i), and the
    empirical innovation covariance (target Lambda_inf).
    """

    samples: int
    distortion: float
    distortion_se: float
    power: float
    power_se: float
    seed: int
    stream_id: int
    per_coordinate_distortion: Optional[np.ndarray] = field(default=None, repr=False)
    per_coordinate_distortion_se: Optional[np.ndarray] = field(default=None, repr=False)
    per_channel_power: Optional[np.ndarray] = field(default=None, repr=False)
    per_channel_power_se: Optional[np.ndarray] = field(default=None, repr=False)
    cov_K: Optional[np.ndarray] = field(default=None, repr=False)
    cov_K_se: Optional[np.ndarray] = field(default=None, repr=False)


def _shard_layout(n, burn, max_shards=64):
    if n < 1:
        raise DomainError("simulation length must be >= 1")
    shards = min(max_shards, max(1, n // max(200, burn)))
    per_shard = -(-n // shards)  # ceil
    return shards, per_shard


def _mean_and_se(shard_means):
    # shard_means: (shards,) or (shards, ...) - axis 0 indexes shards
    m = np.mean(shard_means, axis=0)
    s = shard_means.shape[0]
    if s > 1:
        se = np.std(shard_means, axis=0, ddof=1) / math.sqrt(s)
    else:
        se = np.full_like(np.asarray(m, dtype=float), np.nan)
    return m, se


def _scalar_burn_in(design: JsccScalarDesign):
    q = design.sigma_Vc**2
    rho = abs(design.alpha) * q / (design.P + q) if design.mode == "feedback" else abs(design.alpha)
    if rho <= 0.0:
        return 50
    return max(50, int(math.ceil(-10.0 / math.log(rho))) if rho < 1.0 else 10_000)


def min_steps_with_se(design: JsccScalarDesign) -> int:
    """Smallest n at which simulate_scalar runs two shards, so that its
    standard errors are finite: 2 max(200, burn-in)."""
    return 2 * max(200, _scalar_burn_in(design))


def simulate_scalar(design: JsccScalarDesign, n, rng: RngStream, return_series=False):
    """Simulate the scalar design for (at least) n retained steps.

    Feedback mode runs the closed loop: the encoder maintains the one-step
    predictor from past channel outputs (the same filter the decoder runs);
    other modes scale X_t directly.  Runs as parallel shards on independent
    substreams; statistics use shard means.  Below min_steps_with_se(design)
    steps there is one shard and both standard errors are NaN.  With
    return_series=True a single shard is run and (report, series dict) is
    returned.
    """
    burn = _scalar_burn_in(design)
    shards, per_shard = (1, n) if return_series else _shard_layout(n, burn)
    steps = per_shard + burn
    W = np.empty((steps, shards))
    Vc = np.empty((steps, shards))
    X0 = np.empty(shards)
    for i in range(shards):
        g = rng.shard(i).generator()
        W[:, i] = g.standard_normal(steps)
        Vc[:, i] = g.standard_normal(steps)
        X0[i] = g.standard_normal()
    W *= design.sigma_W
    Vc *= design.sigma_Vc

    feedback = design.mode == "feedback"
    alpha, enc, dec = design.alpha, design.encoder_gain, design.decoder_gain
    X = X0 * math.sqrt(design.source_var)
    Xhat = np.zeros(shards)
    d_sum = np.zeros(shards)
    p_sum = np.zeros(shards)
    series = {"K": [], "B": []} if return_series else None
    for t in range(steps):
        K = X - Xhat if feedback else X
        A_t = enc * K
        B_t = A_t + Vc[t]
        Ktil = dec * B_t
        Y = Ktil + Xhat if feedback else Ktil
        if t >= burn:
            d_sum += (X - Y) ** 2
            p_sum += A_t**2
            if return_series:
                series["K"].append(float(K[0]))
                series["B"].append(float(B_t[0]))
        if feedback:
            Xhat = alpha * Y
        X = alpha * X + W[t]
    dist, dist_se = _mean_and_se(d_sum / per_shard)
    power, power_se = _mean_and_se(p_sum / per_shard)
    report = SimulationReport(
        samples=shards * per_shard,
        distortion=float(dist),
        distortion_se=float(dist_se),
        power=float(power),
        power_se=float(power_se),
        seed=rng.seed,
        stream_id=rng.stream_id,
    )
    if return_series:
        return report, {k: np.array(v) for k, v in series.items()}
    return report


def simulate_vector(
    model: GaussModel, solution: RealizationSolution, n, rng: RngStream
) -> SimulationReport:
    """Simulate the full vector realization of the matched design.

    Source -> innovation K_t -> decorrelate (E_inf) -> per-channel scaling
    sqrt(Q Delta^{-1} H) -> AWGN(Q) -> decoder scaling B_inf -> rotate back
    -> add predictor; encoder and decoder share the modified Kalman filter.
    Below 2 max(200, burn-in) steps there is one shard and every standard
    error is NaN.
    """
    if solution.closed_loop_radius >= 1.0:
        raise NumericError("simulate_vector: closed-loop filter is unstable")
    A, B, C, N = model.A, model.B, model.C, model.N
    m, k, p, d = model.dims
    rho_A = float(np.max(np.abs(np.linalg.eigvals(A))))
    if rho_A >= 1.0:
        raise NumericError("simulate_vector: source state matrix is unstable")
    Pz = solve_discrete_lyapunov(A, B @ B.T)
    Pz_half = np.linalg.cholesky(Pz + 1e-15 * np.eye(m))

    E, eta, delta, q = solution.E_inf, solution.eta, solution.delta, solution.q
    b_inf = solution.b_inf
    a_inf = np.sqrt(np.where(delta > 0.0, q * eta / np.where(delta > 0.0, delta, 1.0), 0.0))
    gain = solution.gain
    sq = np.sqrt(q)

    rho = max(rho_A, solution.closed_loop_radius)
    burn = max(50, int(math.ceil(-10.0 / math.log(rho))) if rho > 0.0 else 50)
    shards, per_shard = _shard_layout(n, burn)
    steps = per_shard + burn

    W = np.empty((steps, k, shards))
    V = np.empty((steps, d, shards))
    Vc = np.empty((steps, p, shards))
    Z = np.empty((m, shards))
    for i in range(shards):
        g = rng.shard(i).generator()
        W[:, :, i] = g.standard_normal((steps, k))
        V[:, :, i] = g.standard_normal((steps, d))
        Vc[:, :, i] = g.standard_normal((steps, p))
        Z[:, i] = Pz_half @ g.standard_normal(m)
    Vc *= sq[None, :, None]

    zhat = np.zeros((m, shards))
    d_sum = np.zeros((p, shards))
    p_sum = np.zeros((p, shards))
    covK = np.zeros((p, p, shards))
    for t in range(steps):
        X = C @ Z + (N @ V[t] if d else 0.0)
        K = X - C @ zhat
        Gam = E @ K
        ch_in = a_inf[:, None] * Gam
        ch_out = ch_in + Vc[t]
        Gam_til = b_inf[:, None] * ch_out
        Ktil = E.T @ Gam_til
        if t >= burn:
            d_sum += (Gam - Gam_til) ** 2
            p_sum += ch_in**2
            covK += np.einsum("is,js->ijs", K, K)
        zhat = A @ zhat + gain @ Ktil
        Z = A @ Z + B @ W[t]

    per_dist, per_dist_se = _mean_and_se((d_sum / per_shard).T)
    per_pow, per_pow_se = _mean_and_se((p_sum / per_shard).T)
    cov, cov_se = _mean_and_se(np.moveaxis(covK / per_shard, 2, 0))
    tot_d, tot_d_se = _mean_and_se((d_sum.sum(axis=0) / per_shard))
    tot_p, tot_p_se = _mean_and_se((p_sum.sum(axis=0) / per_shard))
    return SimulationReport(
        samples=shards * per_shard,
        distortion=float(tot_d),
        distortion_se=float(tot_d_se),
        power=float(tot_p),
        power_se=float(tot_p_se),
        seed=rng.seed,
        stream_id=rng.stream_id,
        per_coordinate_distortion=per_dist,
        per_coordinate_distortion_se=per_dist_se,
        per_channel_power=per_pow,
        per_channel_power_se=per_pow_se,
        cov_K=cov,
        cov_K_se=cov_se,
    )


class SkResult(NamedTuple):
    analytic_mse: np.ndarray  # lambda_t, t = 0..n
    empirical_mse: np.ndarray
    empirical_se: np.ndarray
    capacity: float  # bits/use; equals 0.5 log2(lambda_t/lambda_{t+1}) for all t
    trials: int
    seed: int
    stream_id: int


def schalkwijk_kailath(sigma_X, sigma_Vc, P, n, rng: RngStream, trials=100_000) -> SkResult:
    """Schalkwijk-Kailath transmission of a single Gaussian value with
    feedback: MSE contracts by sigma_Vc^2/(P + sigma_Vc^2) per channel use,
    so every use carries exactly the capacity 0.5 log2(1 + P/sigma_Vc^2)."""
    if not all(0.0 < v < math.inf for v in (sigma_X, sigma_Vc, P)) or n < 1:
        raise DomainError("schalkwijk_kailath: positive finite parameters and n >= 1 required")
    q = sigma_Vc * sigma_Vc
    contraction = q / (P + q)
    lam = sigma_X * sigma_X * contraction ** np.arange(n + 1)
    if not (lam[-1] > 0.0 and lam[0] < math.inf):
        raise NumericError("schalkwijk_kailath: analytic MSE leaves the float range within n uses")
    cap = 0.5 * math.log2(1.0 + P / q)
    with np.errstate(over="ignore", invalid="ignore"):  # inf/NaN fail the check below
        per_use = 0.5 * np.log2(lam[:-1] / lam[1:])
        err = float(np.max(np.abs(per_use - cap)))
    if not err <= 1e-12 * max(cap, 1.0):
        raise NumericError("schalkwijk_kailath: per-use rate != capacity")

    g = rng.generator()
    X = g.standard_normal(trials) * sigma_X
    noise = g.standard_normal((n, trials)) * sigma_Vc
    Xhat = np.zeros(trials)
    emp = np.empty(n + 1)
    se = np.empty(n + 1)
    for t in range(n + 1):
        err2 = (X - Xhat) ** 2
        emp[t] = float(np.mean(err2))
        se[t] = float(np.std(err2, ddof=1) / math.sqrt(trials))
        if t == n:
            break
        B_t = math.sqrt(P / lam[t]) * (X - Xhat) + noise[t]
        Xhat = Xhat + math.sqrt(P * lam[t]) / (P + q) * B_t
    return SkResult(
        analytic_mse=lam,
        empirical_mse=emp,
        empirical_se=se,
        capacity=cap,
        trials=trials,
        seed=rng.seed,
        stream_id=rng.stream_id,
    )
