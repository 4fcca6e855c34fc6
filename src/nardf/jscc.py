"""Zero-delay JSCC designs over AWGN channels matched to the
nonanticipative RDF: capacity water-filling, distortion-power matching,
scalar feedback / no-feedback / IID encoder-decoder gains, the full vector
realization, the Schalkwijk-Kailath scheme, and Monte Carlo verification.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericError
from .excess import GaussianErrorRecursion, _error_steps, gaussian_error_recursion
from .gauss import GaussModel, RealizationSolution, rna_scalar_fully_observed
from .numerics import _MAX_STEPS, RngStream, _check_counts, _level, _lockstep_draws, _sum

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
    cap, alloc = _capacity_waterfill(q.tolist(), float(P))
    return cap, np.array(alloc)


def _capacity_waterfill(q, P):
    # capacity_waterfill of a nonempty list of positive finite floats at a
    # positive finite P, unchecked, with the array form's values: numpy's
    # sums (_sum), np.log2, and an allocation list
    if len(q) == 1:
        cap, alloc = 0.5 * math.log2(1.0 + P / q[0]), [P]
    else:
        level = -_level(sorted(-x for x in q), -(P + _sum(q)))
        # the quietest channel gets power even where the level rounds below its q
        quietest = min(q)
        active = [x for x in q if x < level or x == quietest]
        nu = (P + _sum(active)) / len(active)
        alloc = [nu - x if nu - x > 0.0 else 0.0 for x in q]  # np.maximum(0.0, nu - q)
        if abs(_sum(alloc) - P) > 1e-12 * max(P, 1.0):
            raise NumericError("capacity_waterfill: allocation does not meet P")
        cap = 0.5 * _sum(np.log2([1.0 + a / x for a, x in zip(alloc, q)]).tolist())
    if cap == math.inf:
        raise DomainError("capacity_waterfill: P/q leaves the float range")
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
    DomainError if P leaves the float range.
    """
    lam, delta, q = (x.tolist() for x in (solution.spectrum, solution.delta, solution.q))
    # q_i (lambda_i - delta_i)/delta_i on delta_i > 0, overflowing to inf as arrays do
    alloc = [s * (x - d) / d if d > 0.0 else 0.0 for x, d, s in zip(lam, delta, q)]
    P = _sum(alloc)
    if P == math.inf:
        raise DomainError("match_power: the matched power leaves the float range")
    if P <= 0.0:
        return PowerMatch(P=0.0, allocation=np.zeros(len(lam)), capacity=0.0, matched=True)
    cap, _ = _capacity_waterfill([s for s, a in zip(q, alloc) if a > 0.0], P)
    return PowerMatch(
        P=P,
        allocation=np.array(alloc),
        capacity=cap,
        matched=abs(cap - solution.rate) <= 1e-10,
    )


def matched_channel_noise(solution: RealizationSolution):
    """Channel-noise diagonal q_i = delta_i/lambda_i (1 where lambda_i = 0)
    under which the capacity water-filling reproduces match_power's
    allocation exactly, so C(P) equals the realization rate.  Any positive
    multiple of it matches too, with the power scaled alike."""
    lam, delta = solution.spectrum, solution.delta
    return np.where(lam > 0.0, delta / np.where(lam > 0.0, lam, 1.0), 1.0)


@dataclass(frozen=True)
class JsccScalarDesign:
    """Scalar source-channel design with constant gains, from one rule.

    The encoder input (the innovation K_t in feedback mode, the source X_t
    otherwise; iid is alpha = 0) has variance v = input_var; it is scaled
    to power P (encoder_gain sqrt(P/v)), sent over AWGN noise q = sVc^2 and
    MMSE-decoded (decoder_gain sqrt(P v)/(P + q)), which leaves
    D_min = v q/(P + q).  With feedback the next innovation carries alpha^2
    of that error, so v = sW^2/(1 - alpha^2 q/(P + q)); otherwise
    v = sW^2/(1 - alpha^2) = source_var.  capacity is 0.5 log2(1 + P/q);
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
    # (alpha^2, sigma_W^2, sigma_Vc^2) of a valid input; each test passes
    # only on valid input, and NaN fails every comparison
    if not abs(alpha) < 1.0:
        raise DomainError("requires |alpha| < 1")
    sW2, q = sigma_W * sigma_W, sigma_Vc * sigma_Vc
    if not (0.0 < sW2 < math.inf and 0.0 < q < math.inf):
        raise DomainError("sigma_W^2 and sigma_Vc^2 must be positive and finite")
    if not 0.0 <= P < math.inf:
        raise DomainError("power must be nonnegative and finite")
    return alpha * alpha, sW2, q


def _scalar_design(mode, alpha, sigma_W, sigma_Vc, P) -> JsccScalarDesign:
    # JsccScalarDesign's rule v = sW^2/(1 - a^2 g), g = q/(P + q) with feedback
    # and 1 otherwise.  1 - a^2 g is summed as (1 - a^2) + a^2 (1 - g), and
    # D_min = v q/(P + q) is taken as v/(1 + P/q): no cancellation near
    # |alpha| = 1 and no subnormal factor at P >> q
    a2, sW2, q = _check_scalar_params(alpha, sigma_W, sigma_Vc, P)
    snr = P / q
    one_minus_g = snr / (1.0 + snr) if mode == "feedback" else 0.0
    v = sW2 / ((1.0 - a2) + a2 * one_minus_g)
    D_min = v / (1.0 + snr)
    # a subnormal D_min has lost the digits that _checked's rate test needs
    if not D_min >= sys.float_info.min:
        raise DomainError("scalar design: D_min leaves the normal float range")
    source_var = sW2 / (1.0 - a2)
    if mode == "feedback":
        matched = rna_scalar_fully_observed(alpha, sigma_W, D_min)
    else:
        matched = 0.5 * math.log2(source_var / D_min)
    return _checked(JsccScalarDesign(
        mode=mode, alpha=alpha, sigma_W=sigma_W, sigma_Vc=sigma_Vc, P=P,
        encoder_gain=math.sqrt(P / v), decoder_gain=math.sqrt(P) * math.sqrt(v) / (P + q),
        D_min=D_min, capacity=0.5 * math.log2(1.0 + snr), matched_rate=matched,
        source_var=source_var, input_var=v))


def design_feedback_scalar(alpha, sigma_W, sigma_Vc, P) -> JsccScalarDesign:
    """Feedback design: the innovation X_t - E[X_t | B^{t-1}] is scaled onto
    the channel; achieves D_min = sW^2 sVc^2 / ((1-a^2) sVc^2 + P)."""
    return _scalar_design("feedback", alpha, sigma_W, sigma_Vc, P)


def design_nofeedback_scalar(alpha, sigma_W, sigma_Vc, P) -> JsccScalarDesign:
    """Memoryless design: X_t itself is scaled onto the channel; achieves
    D_min = sW^2 sVc^2 / ((1-a^2)(P + sVc^2)).

    The matched source rate here is the per-letter form
    0.5 log2(sigma_X^2 / D) with sigma_X^2 = sW^2/(1-a^2), which equals the
    channel capacity at D_min.
    """
    return _scalar_design("no-feedback", alpha, sigma_W, sigma_Vc, P)


def design_iid_scalar(sigma_X, sigma_Vc, P) -> JsccScalarDesign:
    """IID source (alpha = 0): feedback and no-feedback designs coincide;
    D_min = sX^2 sVc^2 / (P + sVc^2)."""
    return _scalar_design("iid", 0.0, sigma_X, sigma_Vc, P)


def _checked(design: JsccScalarDesign):
    # a design whose fields left the float range is a domain error; one
    # whose rate or power misses its target is a numeric failure
    values = [getattr(design, f.name) for f in fields(design) if f.name != "mode"]
    if not all(math.isfinite(v) for v in values):
        raise DomainError("scalar design: the parameters put a design field out of the float range")
    if design.P > 0.0:
        if abs(design.matched_rate - design.capacity) > 1e-12 * max(design.capacity, 1.0):
            raise NumericError("scalar design: rate at D_min does not equal capacity")
        enc = design.encoder_gain
        if abs(enc * enc * design.input_var - design.P) > 1e-12 * max(design.P, 1.0):
            raise NumericError("scalar design: encoder input power does not equal P")
    return design


@dataclass(frozen=True)
class SimulationReport:
    """Monte Carlo summary of a linear recursion run from its stationary
    law; means carry shard-based standard errors.  Per coordinate: the
    distortion (targets delta_i of a vector run), the channel input power
    (targets P*_i) and the covariance of K (target Lambda_inf or input_var).
    """

    samples: int
    distortion: float
    distortion_se: float
    power: float
    power_se: float
    seed: int
    stream_id: int
    per_coordinate_distortion: np.ndarray = field(repr=False)
    per_coordinate_distortion_se: np.ndarray = field(repr=False)
    per_channel_power: np.ndarray = field(repr=False)
    per_channel_power_se: np.ndarray = field(repr=False)
    cov_K: np.ndarray = field(repr=False)
    cov_K_se: np.ndarray = field(repr=False)


_MAX_SHARDS = 1024  # each lockstep step's width: at 64, long runs were bound by per-step overhead
_MIN_SHARD = 200  # shortest shard that a standard error is taken over
MIN_STEPS_WITH_SE = 2 * _MIN_SHARD  # fewer steps run one shard, whose standard errors are NaN


def _shard_layout(n):
    """(shards, steps per shard): at most _MAX_SHARDS independent chains of
    at least _MIN_SHARD steps, together >= n steps.  DomainError unless n
    is an integer with 1 <= n <= _MAX_STEPS."""
    if not (isinstance(n, numbers.Integral) and 1 <= n <= _MAX_STEPS):
        raise DomainError(f"simulation length must be an integer in [1, {_MAX_STEPS}] steps, "
                          f"got {n}")
    n = int(n)  # a numpy integer would make `samples` one too
    shards = min(_MAX_SHARDS, max(1, n // _MIN_SHARD))
    return shards, -(-n // shards)  # ceil


def _mean_and_se(shard_means):
    # shard_means: (shards,) or (shards, ...) - axis 0 indexes shards
    m = np.mean(shard_means, axis=0)
    s = shard_means.shape[0]
    if s > 1:
        se = np.std(shard_means, axis=0, ddof=1) / math.sqrt(s)
    else:
        se = np.full_like(np.asarray(m, dtype=float), np.nan)
    return m, se


def _simulate(who, rec: GaussianErrorRecursion, to_channel, n, rng) -> SimulationReport:
    """Report of rec run for (at least) n steps as _shard_layout shards in
    lockstep, the channel input being to_channel @ K: each shard sums err^2
    and K K', and channel i's power is row i of to_channel (a_i E_i) applied
    to sum K K' on both sides.  NumericError if a mean, or with two or more
    shards a standard error, is not finite."""
    shards, per_shard = _shard_layout(n)
    p = to_channel.shape[0]
    d_sum, covK, stats = np.zeros((p, shards)), np.zeros((p, p, shards)), {}
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite sums raise below
        for K, err in _error_steps(rec, per_shard, shards, rng):
            d_sum += err * err
            covK += K[:, None] * K
        p_sum = np.einsum("ij,jks,ik->is", to_channel, covK, to_channel)
        sums = {"distortion": d_sum.sum(axis=0), "power": p_sum.sum(axis=0),
                "per_coordinate_distortion": d_sum, "per_channel_power": p_sum, "cov_K": covK}
        for name, total in sums.items():
            mean, se = _mean_and_se(np.moveaxis(total / per_shard, -1, 0))
            if not (np.all(np.isfinite(mean)) and (shards == 1 or np.all(np.isfinite(se)))):
                raise NumericError(f"{who}: the simulated sums leave the float range")
            if np.ndim(mean) == 0:
                mean, se = float(mean), float(se)
            stats[name], stats[name + "_se"] = mean, se
    return SimulationReport(samples=shards * per_shard, seed=rng.seed,
                            stream_id=rng.stream_id, **stats)


def _scalar_recursion(design: JsccScalarDesign) -> GaussianErrorRecursion:
    """The design's loop on its encoder input K (the innovation in feedback
    mode, X_t otherwise) with draws [W; z]: err = K - dec (enc K + sigma_Vc z)
    and K' = alpha (err if feedback else K) + sigma_W W, from N(0, input_var)."""
    alpha, enc, dec = design.alpha, design.encoder_gain, design.decoder_gain
    err_row = [1.0 - dec * enc, 0.0, -dec * design.sigma_Vc]
    if design.mode == "feedback":
        next_row = [alpha * err_row[0], design.sigma_W, alpha * err_row[2]]
    else:
        next_row = [alpha, design.sigma_W, 0.0]
    return GaussianErrorRecursion(step=np.array([next_row, err_row, [1.0, 0.0, 0.0]]),
                                  cov=np.array([[design.input_var]]))


def simulate_scalar(design: JsccScalarDesign, n, rng: RngStream) -> SimulationReport:
    """Simulate the scalar design's recursion (_scalar_recursion) for (at
    least) n steps, like simulate_vector (shards, NaN standard errors below
    MIN_STEPS_WITH_SE, errors): every step is stationary, however slowly the
    chain mixes."""
    return _simulate("simulate_scalar", _scalar_recursion(design),
                     np.array([[design.encoder_gain]]), n, rng)


def simulate_vector(
    model: GaussModel, solution: RealizationSolution, n, rng: RngStream
) -> SimulationReport:
    """Simulate the full vector realization of the matched design.

    Source -> innovation K_t -> decorrelate (E_inf) -> per-channel scaling
    sqrt(Q Delta^{-1} H) -> AWGN(Q) -> decoder scaling B_inf -> rotate back
    -> add predictor; encoder and decoder share the modified Kalman filter.
    Every statistic depends on the loop only through its filter error
    e = Z - Zhat, so the loop runs as the error recursion of
    gaussian_error_recursion, from its stationary law: an unstable source
    simulates as long as the closed loop is stable (NumericError otherwise).
    Runs as shards in lockstep, like simulate_scalar.  Below
    MIN_STEPS_WITH_SE steps there is one shard and every standard error is
    NaN.  DomainError unless n is an integer in [1, 10^8], before the
    simulation allocates; NumericError if the simulated sums leave the float
    range.
    """
    rec = gaussian_error_recursion(model, solution)
    delta, q = solution.delta, solution.q
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite gain raises in _simulate
        a_inf = np.sqrt(np.where(delta > 0.0, q * solution.eta / np.where(delta > 0.0, delta, 1.0),
                                 0.0))
    return _simulate("simulate_vector", rec, a_inf[:, None] * solution.E_inf, n, rng)


class SkResult(NamedTuple):
    analytic_mse: np.ndarray  # lambda_t, t = 0..n
    empirical_mse: np.ndarray
    empirical_se: np.ndarray
    capacity: float  # bits/use; equals 0.5 log2(lambda_t/lambda_{t+1}) for all t
    trials: int
    seed: int
    stream_id: int


_MAX_SK_USES = 10**7  # 100x the CLI default; each per-use MSE array is then 80 MB


def schalkwijk_kailath(sigma_X, sigma_Vc, P, n, rng: RngStream, trials=100_000) -> SkResult:
    """Schalkwijk-Kailath transmission of a single Gaussian value with
    feedback: MSE contracts by sigma_Vc^2/(P + sigma_Vc^2) per channel use,
    so every use carries exactly the capacity 0.5 log2(1 + P/sigma_Vc^2).
    The trials run in lockstep, drawn through the numerics block layout.
    DomainError for more than 10^7 uses or trials, a count that is not an
    integer, or more than 10^10 uses x trials, before any allocation."""
    if (not all(0.0 < v < math.inf for v in (sigma_X, sigma_Vc, P))
            or not 1 <= n <= _MAX_SK_USES or trials < 2):
        raise DomainError(f"schalkwijk_kailath: positive finite parameters, "
                          f"1 <= n <= {_MAX_SK_USES} and trials >= 2 required")
    _check_counts(trials, n)  # before the n + 1 analytic MSEs are allocated
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

    normals = _lockstep_draws(rng, trials, n, np.random.Generator.standard_normal, first=())
    X = next(normals) * sigma_X
    Xhat = np.zeros(trials)
    emp = np.empty(n + 1)
    se = np.empty(n + 1)
    for t in range(n + 1):
        err2 = (X - Xhat) ** 2
        emp[t] = float(np.mean(err2))
        se[t] = float(np.std(err2, ddof=1) / math.sqrt(trials))
        if t == n:
            break
        B_t = math.sqrt(P / lam[t]) * (X - Xhat) + next(normals) * sigma_Vc
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
