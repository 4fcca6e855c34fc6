"""Nonanticipative RDF of partially observed stationary Gauss-Markov sources.

Solves the coupled fixed point of the modified Kalman-Riccati equation,
eigendecomposition and reverse water-filling by one undamped Picard loop
from Sigma = BB' + I, plus the scalar closed forms (fully observed,
partially observed via the cubic) and the classical references for the
alpha = 1 autoregressive source.

State model:  Z_{t+1} = A Z_t + B W_t,  X_t = C Z_t + N V_t,
with W, V unit-covariance IID Gaussians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericError
from .numerics import (_eigh_desc, _level, _sign_rows, _spectral_radius, _sum,
                       cubic_positive_root)

__all__ = [
    "GaussModel",
    "WaterfillAllocation",
    "RealizationSolution",
    "reverse_waterfill",
    "solve_realization",
    "rna_scalar_fully_observed",
    "rna_scalar_partially_observed",
    "partially_observed_sigma",
    "classical_alpha1",
    "rate_loss_alpha1",
]


@dataclass(frozen=True)
class GaussModel:
    """Linear state-space source: A m x m, B m x k, C p x m, N p x d.

    d = 0 means noiseless observations (N has zero columns).
    """

    A: np.ndarray = field(repr=False)
    B: np.ndarray = field(repr=False)
    C: np.ndarray = field(repr=False)
    N: np.ndarray = field(repr=False)

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        m = A.shape[0]
        B = np.asarray(self.B, dtype=float).reshape(m, -1)
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        p = C.shape[0]
        N = np.asarray(self.N, dtype=float).reshape(p, -1)
        if A.shape != (m, m) or C.shape[1] != m:
            raise DomainError("GaussModel: inconsistent matrix dimensions")
        for name, M in (("A", A), ("B", B), ("C", C), ("N", N)):
            if not np.all(np.isfinite(M)):
                raise DomainError(f"GaussModel: non-finite entries in {name}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "N", N)

    @property
    def dims(self):
        return (
            self.A.shape[0],
            self.B.shape[1],
            self.C.shape[0],
            self.N.shape[1],
        )

    @classmethod
    def scalar(cls, alpha, sigma_W, c=1.0, sigma_V=0.0) -> "GaussModel":
        N = np.empty((1, 0)) if sigma_V == 0.0 else np.array([[float(sigma_V)]])
        return cls(
            A=np.array([[float(alpha)]]),
            B=np.array([[float(sigma_W)]]),
            C=np.array([[float(c)]]),
            N=N,
        )


class WaterfillAllocation(NamedTuple):
    xi: float
    delta: np.ndarray
    rate: float  # bits/sample
    saturated: bool


def _waterfill_rate(lam, delta):
    mask = delta > 0.0
    return float(0.5 * np.sum(np.log2(lam[mask] / delta[mask])))


def reverse_waterfill(spectrum, D) -> WaterfillAllocation:
    """Reverse water-filling: delta_i = min(xi, lambda_i) with sum(delta) = D.

    The exact water level fixes the active set {lambda_i > xi}, on which xi
    is then resolved in closed form.  D exceeding the total spectrum
    saturates every coordinate (rate 0, flagged) instead of raising.
    """
    lam = np.asarray(spectrum, dtype=float).reshape(-1)
    scale = float(np.max(np.abs(lam), initial=0.0))  # NaN propagates
    if lam.size == 0 or not math.isfinite(scale):
        raise DomainError("reverse_waterfill: spectrum must be nonempty and finite")
    if np.any(lam < -1e-12 * max(1.0, scale)):
        raise DomainError("reverse_waterfill: spectrum must be nonnegative")
    lam = np.maximum(lam, 0.0)
    if not D > 0.0:
        raise DomainError("reverse_waterfill: distortion must be positive")
    xi, delta, saturated = _waterfill(lam.tolist(), D)
    delta = np.array(delta)
    # a saturated delta equals lam, whose rate terms are log2(1) = 0 exactly
    return WaterfillAllocation(
        xi=float(xi), delta=delta, rate=_waterfill_rate(lam, delta), saturated=saturated
    )


def _waterfill(lam, D):
    # reverse_waterfill of a nonnegative finite list at D > 0, unchecked and
    # without the rate: (xi, delta list, saturated).  The sums run in numpy's
    # order, so every value is the one the array expressions give.
    total = _sum(lam)
    if D >= total:
        return max(lam), list(lam), D > total
    level = _level(sorted(lam), D)
    inactive = [x for x in lam if not x > level]
    n_active = len(lam) - len(inactive)
    xi = (D - _sum(inactive)) / n_active if n_active else level
    # max(lam) / xi bounds every lam_i / delta_i; xi underflows to 0 first
    if not xi > 0.0 or max(lam) / xi == math.inf:
        raise DomainError("reverse_waterfill: D too small for a finite rate")
    delta = [xi if xi < x else x for x in lam]  # np.minimum(xi, lam)
    if abs(_sum(delta) - D) > 1e-12 * total:
        raise NumericError("reverse_waterfill: allocation does not meet D")
    return xi, delta, False


@dataclass(frozen=True)
class RealizationSolution:
    """Fixed point of the modified Kalman filter realization at distortion D.

    eta holds the diagonal of H_inf; b_inf the diagonal of the decoder
    scaling sqrt(H_inf Delta_inf Q^{-1}); q the channel-noise diagonal.
    rate is in bits/sample.
    """

    model: GaussModel = field(repr=False)
    D: float
    q: np.ndarray = field(repr=False)
    Sigma_inf: np.ndarray = field(repr=False)
    Lambda_inf: np.ndarray = field(repr=False)
    E_inf: np.ndarray = field(repr=False)
    spectrum: np.ndarray = field(repr=False)
    delta: np.ndarray = field(repr=False)
    xi: float
    eta: np.ndarray = field(repr=False)
    b_inf: np.ndarray = field(repr=False)
    gain: np.ndarray = field(repr=False)
    rate: float
    iterations: int
    residual: float
    saturated: bool
    closed_loop_radius: float

    @property
    def filter_stable(self):
        return self.closed_loop_radius < 1.0


def _as_noise_diagonal(Q, p):
    if Q is None:
        return np.ones(p)
    q = np.asarray(Q, dtype=float)
    if q.ndim == 2:
        if np.any(q != np.diag(np.diag(q))):
            raise DomainError("channel noise Q must be diagonal")
        q = np.diag(q)
    q = np.broadcast_to(np.atleast_1d(q), (p,)).astype(float)
    if np.any(q <= 0.0) or not np.all(np.isfinite(q)):
        raise DomainError("channel noise Q must be positive")
    return q.copy()


_DIVERGENCE_CAP = 1e12
_TOL = 1e-11
_ULP_TOL = 4.0 * np.finfo(float).eps  # a large Sigma stalls the change near one ulp
_MAX_ITER = 100_000
_LINEAR_LAG = 1000  # sweeps between the changes that the linear-growth check compares


def _sweep(A, BBt, C, NNt, Sigma, D):
    """One Picard sweep: water-filled observation weight, then Riccati.

    Returns the new Sigma and (Lam, lam, E, xi, delta, eta, saturated),
    with lam, delta and eta lists of floats equal to the array forms.  The
    rows of E carry eigh's signs, not sym_eig's convention: the sweep uses
    E only in S = C'E' diag(ratio) E C, whose every term is a product of
    two entries of one row, so a row's sign cannot change a bit of S.

    The products use ndarray.dot: the same BLAS product as @, without the
    gufunc dispatch that dominates at these sizes.  The two differ only in
    the sign of a 1x1 product that is zero (dot keeps -0.0), and every such
    product is summed with NN' or BB' (sums of squares, never -0.0) before
    it reaches Lambda or Sigma, so both keep their bits."""
    Lam = C.dot(Sigma).dot(C.T) + NNt
    Lam = 0.5 * (Lam + Lam.T)
    if not np.isfinite(Lam).all():
        raise DomainError("solve_realization: non-finite Lambda (the covariances overflow)")
    w, E = _eigh_desc(Lam)
    lam = [x if x > 0.0 else 0.0 for x in w.tolist()]  # np.maximum(w, 0.0)
    if _sum(lam) > 0.0:
        xi, delta, saturated = _waterfill(lam, D)
    else:
        xi, delta, saturated = 0.0, [0.0] * len(lam), True
    eta, ratio = [], []
    for x, d in zip(lam, delta):
        e = 1.0 - d / x if x > 0.0 else 0.0  # in [0, 1], as 0 <= delta_i <= lambda_i
        eta.append(e)
        ratio.append(e / x if x > 0.0 else 0.0)
    S = C.T.dot(E.T).dot(np.array(ratio)[:, None] * E).dot(C)
    ASigma = A.dot(Sigma)
    new = ASigma.dot(A.T) - ASigma.dot(S).dot(Sigma).dot(A.T) + BBt
    return 0.5 * (new + new.T), (Lam, lam, E, xi, delta, eta, saturated)


def _sweep_1x1(a, bb, c, nn, s, D):
    """_sweep at m = p = 1 on floats, operation for operation: E = [[1]],
    a 1x1 dot is one rounded product (a zero keeps its sign, as in dot),
    and the water-filling is the same _waterfill.  Returns the new Sigma."""
    lam = (c * s) * c + nn
    lam = 0.5 * (lam + lam)
    if not math.isfinite(lam):
        raise DomainError("solve_realization: non-finite Lambda (the covariances overflow)")
    if lam > 0.0:
        _, (delta,), _ = _waterfill([lam], D)
        ratio = (1.0 - delta / lam) / lam
    else:  # np.maximum(w, 0.0) is 0 and the sweep skips the water-filling
        ratio = 0.0
    S = (c * ratio) * c
    a_s = a * s
    new = a_s * a - ((a_s * S) * s) * a + bb
    return 0.5 * (new + new)


def solve_realization(model: GaussModel, D, Q=None) -> RealizationSolution:
    """Joint fixed point of the modified Riccati equation and reverse
    water-filling (undamped Picard iteration on Sigma_inf from BB' + I).

    Each sweep recomputes Lambda = C Sigma C' + NN', its eigensystem, the
    water-filled (xi, delta), the weights eta_i = 1 - delta_i/lambda_i, and
    the Riccati step, which replaces Sigma until the change drops below
    max(1e-11, 4 eps max|Sigma|).  With m = p = 1 the loop runs on Python
    floats (_sweep_1x1, the same operations and checks as _sweep); the
    last sweep and what follows it run in numpy in either case.

    The sweeps take Lambda's eigensystem up to the sign of each
    eigenvector (see _sweep); sym_eig's sign convention is applied once,
    after the last sweep, to the E_inf that the solution returns and that
    the filter gain and closed loop are built from.

    D and Q are checked once, on entry (the model's matrices are finite by
    construction).  The sweeps call the unchecked cores of sym_eig and
    reverse_waterfill and keep only the checks that can fire mid-loop:
    DomainError for a non-finite Lambda (the covariances overflow) or a D so
    small that lambda_i/delta_i overflows; NumericError for a failed
    eigensolve, an allocation that misses D, a Sigma that is non-finite or
    exceeds _DIVERGENCE_CAP, a change equal (to a relative 1e-9) to the
    change _LINEAR_LAG sweeps earlier (Sigma grows linearly), or no
    convergence in _MAX_ITER sweeps.  After the loop, a decoder scaling or
    filter gain outside the float range raises DomainError, and a failed
    closed-loop eigensolve NumericError.
    """
    if not 0.0 < D < math.inf:
        raise DomainError("solve_realization: distortion must be positive and finite")
    D = float(D)
    m, _, p, _ = model.dims
    q = _as_noise_diagonal(Q, p)
    A, B, C, N = model.A, model.B, model.C, model.N
    BBt = B @ B.T
    NNt = N @ N.T

    scalar = m == p == 1
    if scalar:
        a, bb, c, nn = (float(X[0, 0]) for X in (A, BBt, C, NNt))
    Sigma = bb + 1.0 if scalar else BBt + np.eye(m)
    # invalid="ignore" also covers _eigh_desc, which checks its own result
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, _MAX_ITER + 1):
            if scalar:
                new = _sweep_1x1(a, bb, c, nn, Sigma, D)
                scale, change = abs(new), abs(new - Sigma)
            else:
                new, _ = _sweep(A, BBt, C, NNt, Sigma, D)
                scale = float(abs(new).max())
                change = float(abs(new - Sigma).max())
            # NaN fails this comparison, so it also rejects non-finite entries
            if not scale <= _DIVERGENCE_CAP:
                raise NumericError(
                    "solve_realization: iteration diverged "
                    "(model may violate detectability/stabilizability)"
                )
            Sigma = new
            if change < max(_TOL, _ULP_TOL * scale):
                break
            if iterations % _LINEAR_LAG == 1:
                # a mode that neither the observation nor the decay reaches
                # grows Sigma by a fixed step per sweep, far below the cap
                if iterations > 1 and abs(change - lagged) <= 1e-9 * lagged:
                    raise NumericError("solve_realization: Sigma grows linearly: "
                                       "undetectable or unstabilizable mode")
                lagged = change
        else:
            raise NumericError(
                f"solve_realization: no convergence in {_MAX_ITER} iterations "
                f"(last change {change:.3e})"
            )
        Sigma = np.array([[Sigma]]) if scalar else Sigma
        full, (Lam, lam, E, xi, delta, eta, saturated) = _sweep(A, BBt, C, NNt, Sigma, D)
    E = _sign_rows(E)
    residual = float(np.max(np.abs(full - Sigma)))
    lam, delta, eta = np.array(lam), np.array(delta), np.array(eta)
    saturated = saturated or D >= float(lam.sum()) - 1e-15
    rate = _waterfill_rate(lam, delta)  # 0 when every delta_i is 0 or lambda_i

    with np.errstate(over="ignore", invalid="ignore"):
        b_inf = np.sqrt(eta * delta / q)
        inv_active = np.where(eta > 0.0, 1.0 / np.where(lam > 0.0, lam, 1.0), 0.0)
        gain = A @ Sigma @ C.T @ E.T @ (inv_active[:, None] * E)
        Ebar = E.T @ (eta[:, None] * E)
        closed_loop = A - gain @ Ebar @ C
    if not all(np.isfinite(X).all() for X in (b_inf, gain, closed_loop)):
        raise DomainError("solve_realization: decoder or filter gain leaves the float range "
                          "(channel noise Q or a lambda_i too small)")
    radius = _spectral_radius(closed_loop)

    return RealizationSolution(
        model=model,
        D=D,
        q=q,
        Sigma_inf=Sigma,
        Lambda_inf=Lam,
        E_inf=E,
        spectrum=lam,
        delta=delta,
        xi=xi,
        eta=eta,
        b_inf=b_inf,
        gain=gain,
        rate=rate,
        iterations=iterations,
        residual=residual,
        saturated=bool(saturated),
        closed_loop_radius=radius,
    )


def _half_log2(x, context):
    # 0.5 log2(x) of a closed form's argument, which must stay positive and
    # finite: an underflow to 0 or overflow to inf leaves the float range
    if not 0.0 < x < math.inf:
        raise DomainError(f"{context}: log argument leaves the float range")
    return 0.5 * math.log2(x)


def rna_scalar_fully_observed(alpha, sigma_W, D):
    """Nonanticipative RDF 0.5 log2(alpha^2 + sigma_W^2/D) of the scalar
    fully observed Gauss-Markov source, evaluated as written (no clamping)."""
    if not 0.0 < D < math.inf:
        raise DomainError("distortion must be positive and finite")
    if not abs(alpha) <= 1.0:
        raise DomainError("requires |alpha| <= 1")
    if not 0.0 < sigma_W < math.inf:
        raise DomainError("sigma_W must be positive and finite")
    return _half_log2(alpha * alpha + sigma_W * sigma_W / D, "rna_scalar_fully_observed")


def partially_observed_sigma(alpha, c, sigma_W, sigma_V, D):
    """Steady-state filter error variance Sigma_inf of the scalar partially
    observed source at distortion D: largest real root of the cubic

        c^4 S^3 + ((2 - a^2) c^2 sV^2 - a^2 c^2 D - c^4 sW^2) S^2
                + ((1 - a^2) sV^4 - 2 c^2 sV^2 sW^2) S - sV^4 sW^2 = 0,

    obtained by clearing denominators in the scalar reduction of the
    modified Riccati fixed point S = a^2 S - a^2 c^2 S^2 H/lam + sW^2,
    lam = c^2 S + sV^2, H = 1 - D/lam.  (Sanity anchors: a = 0 factors as
    (S - sW^2)(S + sV^2/c^2)^2 = 0 with root sW^2; sV = 0 recovers the
    fully observed S = a^2 D + sW^2.)
    """
    if not abs(alpha) < 1.0:
        raise DomainError("requires |alpha| < 1")
    if not (0.0 < c < math.inf and 0.0 < sigma_W < math.inf and 0.0 <= sigma_V < math.inf):
        raise DomainError("requires finite c > 0, sigma_W > 0, sigma_V >= 0")
    if not 0.0 < D < math.inf:
        raise DomainError("distortion must be positive and finite")
    cc = c * c
    sV2 = sigma_V * sigma_V
    sW2 = sigma_W * sigma_W
    a2 = alpha * alpha
    lead = cc * cc
    c2co = (2.0 - a2) * cc * sV2 - a2 * cc * D - lead * sW2
    c1co = (1.0 - a2) * sV2 * sV2 - 2.0 * cc * sV2 * sW2
    c0co = -(sV2 * sV2 * sW2)
    root = cubic_positive_root(lead, c2co, c1co, c0co)
    if root <= 0.0:
        raise NumericError("scalar cubic: no positive root")
    return root


def rna_scalar_partially_observed(alpha, c, sigma_W, sigma_V, D):
    """Nonanticipative RDF of the scalar partially observed source in
    bits/sample: 0.5 log2((c^2 Sigma_inf + sigma_V^2)/D) with Sigma_inf the
    largest positive root of the steady-state cubic; 0 once D reaches the
    innovation variance lambda_1 = c^2 Sigma_inf + sigma_V^2."""
    sigma = partially_observed_sigma(alpha, c, sigma_W, sigma_V, D)
    lam1 = c * c * sigma + sigma_V * sigma_V
    if D >= lam1:
        return 0.0
    return _half_log2(lam1 / D, "rna_scalar_partially_observed")


def classical_alpha1(sigma_W, D):
    """Classical RDF 0.5 log2(sigma_W^2/D) of the alpha = 1 autoregressive
    source, valid only on 0 < D <= sigma_W^2/4."""
    if sigma_W <= 0.0:
        raise DomainError("sigma_W must be positive")
    if not 0.0 < D <= sigma_W * sigma_W / 4.0:
        raise DomainError("classical_alpha1 valid only for 0 < D <= sigma_W^2/4")
    return _half_log2(sigma_W * sigma_W / D, "classical_alpha1")


def rate_loss_alpha1(sigma_W, D):
    """Rate loss 0.5 log2(1 + D/sigma_W^2) of causal codes for the alpha = 1
    autoregressive source on the same validity region as classical_alpha1."""
    if sigma_W <= 0.0:
        raise DomainError("sigma_W must be positive")
    if not 0.0 < D <= sigma_W * sigma_W / 4.0:
        raise DomainError("rate_loss_alpha1 valid only for 0 < D <= sigma_W^2/4")
    return _half_log2(1.0 + D / (sigma_W * sigma_W), "rate_loss_alpha1")
