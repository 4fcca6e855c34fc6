"""Nonanticipative RDF of partially observed stationary Gauss-Markov sources.

Solves the coupled fixed point of the modified Kalman-Riccati equation,
eigendecomposition and reverse water-filling, plus the scalar closed forms
(fully observed, partially observed via the cubic) and the classical
references for the alpha = 1 autoregressive source.

State model:  Z_{t+1} = A Z_t + B W_t,  X_t = C Z_t + N V_t,
with W, V unit-covariance IID Gaussians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericError
from .numerics import cubic_positive_root, sym_eig, water_level

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
    if lam.size == 0 or np.any(lam < -1e-12 * max(1.0, float(np.max(np.abs(lam))))):
        raise DomainError("reverse_waterfill: spectrum must be nonnegative")
    lam = np.maximum(lam, 0.0)
    if not D > 0.0:
        raise DomainError("reverse_waterfill: distortion must be positive")
    total = float(lam.sum())
    if D >= total:
        return WaterfillAllocation(
            xi=float(lam.max()), delta=lam.copy(), rate=0.0, saturated=D > total
        )
    level = water_level(lam, D)
    active = lam > level
    n_active = int(active.sum())
    xi = (D - float(lam[~active].sum())) / n_active if n_active else level
    delta = np.minimum(xi, lam)
    if abs(float(delta.sum()) - D) > 1e-12 * total:
        raise NumericError("reverse_waterfill: allocation does not meet D")
    return WaterfillAllocation(
        xi=float(xi), delta=delta, rate=_waterfill_rate(lam, delta), saturated=False
    )


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
    M_inf: np.ndarray = field(repr=False)
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


def _check_divergence(Sigma, context):
    if not np.all(np.isfinite(Sigma)) or float(np.max(np.abs(Sigma))) > _DIVERGENCE_CAP:
        raise NumericError(
            f"{context}: iteration diverged "
            "(model may violate detectability/stabilizability)"
        )


def _riccati_init(A, BBt, C, NNt, n_iter=500, tol=1e-12):
    # standard Kalman filter Riccati (full observation weight H = I)
    Sigma = BBt + np.eye(A.shape[0])
    for _ in range(n_iter):
        Lam = C @ Sigma @ C.T + NNt
        lam, E = sym_eig(0.5 * (Lam + Lam.T))
        inv = np.where(lam > 1e-12 * max(lam.max(), 1.0), 1.0 / np.maximum(lam, 1e-300), 0.0)
        S = C.T @ E.T @ (inv[:, None] * E) @ C
        new = A @ Sigma @ A.T - A @ Sigma @ S @ Sigma @ A.T + BBt
        new = 0.5 * (new + new.T)
        _check_divergence(new, "solve_realization (init)")
        if float(np.max(np.abs(new - Sigma))) < tol:
            return new
        Sigma = new
    return Sigma


def _modified_step(A, BBt, C, NNt, Sigma, D):
    """One Picard substep: water-filled observation weight, then Riccati."""
    Lam = C @ Sigma @ C.T + NNt
    Lam = 0.5 * (Lam + Lam.T)
    lam, E = sym_eig(Lam)
    lam = np.maximum(lam, 0.0)
    alloc = reverse_waterfill(lam, D) if float(lam.sum()) > 0.0 else None
    if alloc is None:
        delta = np.zeros_like(lam)
    else:
        delta = alloc.delta
    eta = np.where(lam > 0.0, 1.0 - delta / np.where(lam > 0.0, lam, 1.0), 0.0)
    eta = np.clip(eta, 0.0, 1.0)
    ratio = np.where(lam > 0.0, eta / np.where(lam > 0.0, lam, 1.0), 0.0)
    S = C.T @ E.T @ (ratio[:, None] * E) @ C
    new = A @ Sigma @ A.T - A @ Sigma @ S @ Sigma @ A.T + BBt
    return 0.5 * (new + new.T), (Lam, lam, E, alloc, delta, eta)


def solve_realization(
    model: GaussModel,
    D,
    Q=None,
    tol=1e-11,
    max_iter=100_000,
) -> RealizationSolution:
    """Joint fixed point of the modified Riccati equation and reverse
    water-filling (damped Picard iteration on Sigma_inf).

    Each sweep recomputes Lambda = C Sigma C' + NN', its eigensystem, the
    water-filled (xi, delta), the weights eta_i = 1 - delta_i/lambda_i, and
    the Riccati step; Sigma is relaxed halfway toward the update until the
    change drops below tol.
    """
    if not D > 0.0:
        raise DomainError("solve_realization: distortion must be positive")
    m, _, p, _ = model.dims
    q = _as_noise_diagonal(Q, p)
    A, B, C, N = model.A, model.B, model.C, model.N
    BBt = B @ B.T
    NNt = N @ N.T if N.shape[1] else np.zeros((p, p))

    Sigma = _riccati_init(A, BBt, C, NNt)
    change = math.inf
    iterations = 0
    if m == 1 and p == 1:
        # scalar path: identical update map, damping and tolerance, no
        # array overhead inside the loop
        a2 = float(A[0, 0]) ** 2
        cc = float(C[0, 0]) ** 2
        bb = float(BBt[0, 0])
        nn = float(NNt[0, 0])
        s = float(Sigma[0, 0])
        for iterations in range(1, int(max_iter) + 1):
            lam1 = cc * s + nn
            delta1 = D if D < lam1 else lam1
            eta1 = 1.0 - delta1 / lam1 if lam1 > 0.0 else 0.0
            new1 = a2 * s - a2 * cc * s * s * eta1 / lam1 + bb if lam1 > 0.0 else a2 * s + bb
            damped1 = 0.5 * (s + new1)
            if not abs(damped1) <= _DIVERGENCE_CAP:  # NaN fails this test too
                _check_divergence(damped1, "solve_realization")
            change = abs(damped1 - s)
            s = damped1
            if change < tol:
                break
        Sigma = np.array([[s]])
    else:
        for iterations in range(1, int(max_iter) + 1):
            new, _ = _modified_step(A, BBt, C, NNt, Sigma, D)
            damped = 0.5 * (Sigma + new)
            _check_divergence(damped, "solve_realization")
            change = float(np.max(np.abs(damped - Sigma)))
            Sigma = damped
            if change < tol:
                break
    if not change < tol:
        raise NumericError(
            f"solve_realization: no convergence in {int(max_iter)} iterations "
            f"(last change {change:.3e})"
        )

    full, (Lam, lam, E, alloc, delta, eta) = _modified_step(A, BBt, C, NNt, Sigma, D)
    residual = float(np.max(np.abs(full - Sigma)))
    saturated = alloc is None or alloc.saturated or D >= float(lam.sum()) - 1e-15
    rate = 0.0 if alloc is None else _waterfill_rate(lam, delta)
    xi = float(lam.max(initial=0.0)) if alloc is None else alloc.xi

    b_inf = np.sqrt(eta * delta / q)
    M_inf = E.T @ ((eta * lam)[:, None] * E)
    inv_active = np.where(eta > 0.0, 1.0 / np.where(lam > 0.0, lam, 1.0), 0.0)
    gain = A @ Sigma @ C.T @ E.T @ (inv_active[:, None] * E)
    Ebar = E.T @ (eta[:, None] * E)
    radius = float(np.max(np.abs(np.linalg.eigvals(A - gain @ Ebar @ C))))

    return RealizationSolution(
        model=model,
        D=float(D),
        q=q,
        Sigma_inf=Sigma,
        Lambda_inf=Lam,
        E_inf=E,
        spectrum=lam,
        delta=delta,
        xi=xi,
        eta=eta,
        b_inf=b_inf,
        M_inf=M_inf,
        gain=gain,
        rate=rate,
        iterations=iterations,
        residual=residual,
        saturated=bool(saturated),
        closed_loop_radius=radius,
    )


def rna_scalar_fully_observed(alpha, sigma_W, D):
    """Nonanticipative RDF 0.5 log2(alpha^2 + sigma_W^2/D) of the scalar
    fully observed Gauss-Markov source, evaluated as written (no clamping)."""
    if not 0.0 < D < math.inf:
        raise DomainError("distortion must be positive and finite")
    if not abs(alpha) <= 1.0:
        raise DomainError("requires |alpha| <= 1")
    if not 0.0 < sigma_W < math.inf:
        raise DomainError("sigma_W must be positive and finite")
    return 0.5 * math.log2(alpha * alpha + sigma_W * sigma_W / D)


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
    if abs(alpha) >= 1.0:
        raise DomainError("requires |alpha| < 1")
    if c <= 0.0 or sigma_W <= 0.0 or sigma_V < 0.0:
        raise DomainError("requires c > 0, sigma_W > 0, sigma_V >= 0")
    if D <= 0.0:
        raise DomainError("distortion must be positive")
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
    if D <= 0.0:
        raise DomainError("distortion must be positive")
    if abs(alpha) >= 1.0:
        raise DomainError("requires |alpha| < 1")
    if c <= 0.0 or sigma_W <= 0.0 or sigma_V < 0.0:
        raise DomainError("requires c > 0, sigma_W > 0, sigma_V >= 0")
    sigma = partially_observed_sigma(alpha, c, sigma_W, sigma_V, D)
    lam1 = c * c * sigma + sigma_V * sigma_V
    if D >= lam1:
        return 0.0
    return 0.5 * math.log2(lam1 / D)


def classical_alpha1(sigma_W, D):
    """Classical RDF 0.5 log2(sigma_W^2/D) of the alpha = 1 autoregressive
    source, valid only on 0 < D <= sigma_W^2/4."""
    if sigma_W <= 0.0:
        raise DomainError("sigma_W must be positive")
    if not 0.0 < D <= sigma_W * sigma_W / 4.0:
        raise DomainError("classical_alpha1 valid only for 0 < D <= sigma_W^2/4")
    return 0.5 * math.log2(sigma_W * sigma_W / D)


def rate_loss_alpha1(sigma_W, D):
    """Rate loss 0.5 log2(1 + D/sigma_W^2) of causal codes for the alpha = 1
    autoregressive source on the same validity region as classical_alpha1."""
    if sigma_W <= 0.0:
        raise DomainError("sigma_W must be positive")
    if not 0.0 < D <= sigma_W * sigma_W / 4.0:
        raise DomainError("rate_loss_alpha1 valid only for 0 < D <= sigma_W^2/4")
    return 0.5 * math.log2(1.0 + D / (sigma_W * sigma_W))
