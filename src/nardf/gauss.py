"""Nonanticipative RDF of partially observed stationary Gauss-Markov sources.

Solves the coupled fixed point of the modified Kalman-Riccati equation,
eigendecomposition and reverse water-filling (in closed form when m = p = 1,
else by one undamped Picard loop from Sigma = BB' + I), plus the scalar
closed forms, the fully observed one as the sigma_V = 0 case of the
partially observed one (one rule, _scalar_sigma, for every scalar Sigma_inf,
rate and saturation), and the classical references for the alpha = 1
autoregressive source.  The vector rate is that of the paper's
realization, whose error covariance shares the innovations' eigenvectors:
achievable and equal to R^na on scalar sources, but not always the
infimum of the sequential RDF program (A = diag(0.9, 0.2), B = C = I at
D = 1: 1.259570 bits, where the best split of D over the two scalar
closed forms needs 1.246108).

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
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        m, p = A.shape[0], C.shape[0]
        # B has m rows and N p rows: an empty one has no columns, a 1-D one is one column
        B, N = (np.empty((rows, 0)) if X.size == 0 else X.reshape(-1, 1) if X.ndim < 2 else X
                for X, rows in ((np.asarray(self.B, dtype=float), m),
                                (np.asarray(self.N, dtype=float), p)))
        if (not m or not p or A.shape != (m, m) or C.shape != (p, m)
                or B.ndim != 2 or len(B) != m or N.ndim != 2 or len(N) != p):
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
    # 0.5 sum log2(lambda_i/delta_i) over delta_i > 0 of two lists, with the
    # array form's np.log2 and numpy's summation order
    return 0.5 * _sum(np.log2([x / d for x, d in zip(lam, delta) if d > 0.0]).tolist())


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
    if np.any(lam < -1e-12 * scale):
        raise DomainError("reverse_waterfill: spectrum must be nonnegative")
    lam = np.maximum(lam, 0.0).tolist()
    if not D > 0.0:
        raise DomainError("reverse_waterfill: distortion must be positive")
    xi, delta, saturated = _waterfill(lam, D)
    # a saturated delta equals lam, whose rate terms are log2(1) = 0 exactly
    return WaterfillAllocation(
        xi=float(xi), delta=np.array(delta), rate=_waterfill_rate(lam, delta),
        saturated=saturated
    )


def _waterfill(lam, D):
    # reverse_waterfill of a nonnegative finite list at D > 0, unchecked and
    # without the rate: (xi, delta list, D > sum(lam)), the saturated flag that
    # solve_realization reports too.  The sums run in numpy's order, so every
    # value is the one the array expressions give.
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
    # Q as a (p,) array: a scalar, a (p,) vector or a diagonal (p, p) matrix
    if Q is None:
        return np.ones(p)
    try:
        q = np.array(Q, dtype=float)
    except (TypeError, ValueError):  # ragged or not numeric: refused below
        q = np.empty(0)
    if q.ndim == 0:
        q = np.full(p, float(q))
    elif q.shape == (p, p) and not np.any(q != np.diag(np.diag(q))):
        q = np.diag(q).copy()
    if q.shape != (p,):
        raise DomainError(f"channel noise Q must be a scalar, a length-{p} vector "
                          f"or a diagonal {p} x {p} matrix")
    if np.any(q <= 0.0) or not np.all(np.isfinite(q)):
        raise DomainError("channel noise Q must be positive")
    return q


# every rule is relative, so scaling B, N by s and D by s^2 keeps the rate
_DIVERGENCE_CAP = 1e12  # times max|Sigma| at the start
_TOL = 1e-11  # times max|Sigma|
_MAX_ITER = 100_000
_LINEAR_LAG = 1000  # sweeps between the changes that the linear-growth check compares
_DIVERGED = ("solve_realization: iteration diverged "
             "(model may violate detectability/stabilizability)")
_GROWS_LINEARLY = "solve_realization: Sigma grows linearly: undetectable or unstabilizable mode"


def _sweep(A, BBt, C, NNt, Sigma, D):
    """One Picard sweep: water-filled observation weight, then Riccati.

    Returns the new Sigma and (Lam, lam, E, xi, delta, saturated), with
    lam and delta lists of floats equal to the array forms.  The rows of E
    carry eigh's signs, not sym_eig's convention: the sweep uses E only in
    S = C'E' diag(ratio) E C, whose every term is a product of two entries
    of one row, so a row's sign cannot change a bit of S.

    The products use ndarray.dot: the same BLAS product as @, without the
    gufunc dispatch that dominates at these sizes.  The two differ only in
    the sign of a 1x1 product that is zero (dot keeps -0.0), and every such
    product is summed with NN' or BB' (sums of squares, never -0.0) before
    it reaches Lambda or Sigma, so both keep their bits.

    Its ~24 NumPy calls on 2x2 to 4x4 arrays cost more than the arithmetic,
    so the checks run on lists.  Lambda is checked before the eigensolve:
    LAPACK does not flag every non-finite input (a NaN on a 2x2's diagonal
    can give a finite spectrum; an inf sets the divide-by-zero flag)."""
    Lam = C.dot(Sigma).dot(C.T) + NNt
    Lam = 0.5 * (Lam + Lam.T)
    if not all(map(math.isfinite, Lam.ravel().tolist())):
        raise DomainError("solve_realization: non-finite Lambda (the covariances overflow)")
    w, E = _eigh_desc(Lam)
    lam = [x if x > 0.0 else 0.0 for x in w.tolist()]  # np.maximum(w, 0.0)
    xi, delta, saturated = _waterfill(lam, D)  # lam = 0: delta = lam, saturated
    # eta_i/lambda_i, eta_i = 1 - delta_i/lambda_i in [0, 1] as 0 <= delta_i <= lambda_i
    ratio = [(1.0 - d / x) / x if x > 0.0 else 0.0 for x, d in zip(lam, delta)]
    S = C.T.dot(E.T).dot(np.array(ratio)[:, None] * E).dot(C)
    ASigma = A.dot(Sigma)
    new = ASigma.dot(A.T) - ASigma.dot(S).dot(Sigma).dot(A.T) + BBt
    return 0.5 * (new + new.T), (Lam, lam, E, xi, delta, saturated)


def _scale_and_change(new, old):
    # (max|new_i|, max|new_i - old_i|) over two lists of floats in one pass,
    # as the array reductions give them: a NaN term makes its maximum NaN
    scale = change = 0.0
    for x, y in zip(new, old):
        a, d = abs(x), abs(x - y)
        scale = a if a > scale or a != a else scale
        change = d if d > change or d != d else change
    return scale, change


def _scalar_sigma(a, bb, c, nn, D):
    """Sigma_inf at m = p = 1 (BB' = bb, NN' = nn): bb/(1 - a^2) if |a| < 1
    and bb = 0, c = 0 or D >= c^2 bb/(1 - a^2) + nn (saturated), else the
    largest root of the cubic of partially_observed_sigma."""
    if abs(a) < 1.0:
        stationary = bb / (1.0 - a * a)
        if bb == 0.0 or c == 0.0 or D >= c * c * stationary + nn:
            return stationary
    elif c == 0.0:  # no Sigma_inf; the loop's first sweep checks D against Lambda = nn first
        _waterfill([nn], D)
        raise NumericError(_GROWS_LINEARLY if abs(a) == 1.0 else _DIVERGED)
    cc, a2 = c * c, a * a
    return cubic_positive_root(cc * cc, (2.0 - a2) * cc * nn - a2 * cc * D - cc * cc * bb,
                               (1.0 - a2) * nn * nn - 2.0 * cc * nn * bb, -(nn * nn * bb))


def _sigma_inf(A, BBt, C, NNt, D):
    # (Sigma_inf, iterations): m = p = 1 in closed form, counted as 1, else the Picard loop
    if A.shape[0] == C.shape[0] == 1:
        a, bb, c, nn = (float(X[0, 0]) for X in (A, BBt, C, NNt))
        return np.array([[_scalar_sigma(a, bb, c, nn, D)]]), 1
    Sigma = BBt + np.eye(A.shape[0])
    cap = _DIVERGENCE_CAP * float(Sigma.max())  # PSD: max = max|.|
    if not BBt.any() and _spectral_radius(A) < 1.0:
        # Sigma_inf = 0, which a relative stop reaches only at underflow
        Sigma = 0.0 * Sigma
    prev = Sigma.ravel().tolist()
    for iterations in range(1, _MAX_ITER + 1):
        new, _ = _sweep(A, BBt, C, NNt, Sigma, D)
        flat = new.ravel().tolist()
        scale, change = _scale_and_change(flat, prev)
        # NaN fails this comparison, so it also rejects non-finite entries
        if not scale <= cap:
            raise NumericError(_DIVERGED)
        Sigma, prev = new, flat
        if change <= _TOL * scale:
            return Sigma, iterations
        if iterations % _LINEAR_LAG == 1:
            # a mode that neither the observation nor the decay reaches
            # grows Sigma by a fixed step per sweep, far below the cap
            if iterations > 1 and abs(change - lagged) <= 1e-9 * lagged:
                raise NumericError(_GROWS_LINEARLY)
            lagged = change
    raise NumericError(f"solve_realization: no convergence in {_MAX_ITER} "
                       f"iterations (last change {change:.3e})")


def solve_realization(model: GaussModel, D, Q=None) -> RealizationSolution:
    """Joint fixed point of the modified Riccati equation and reverse
    water-filling, whose rate is achievable but not always the sequential
    RDF infimum (module doc).  At m = p = 1 Sigma_inf is in closed form
    (_scalar_sigma, `iterations` 1); otherwise each sweep of an undamped
    Picard loop recomputes Lambda = C Sigma C' + NN', its eigensystem, the
    water-filled (xi, delta), the weights eta_i = 1 - delta_i/lambda_i, and
    the Riccati step, which replaces Sigma until the change is at most
    1e-11 max|Sigma| (from BB' + I, or 0 if BB' = 0 and A is stable).  One
    more sweep builds the solution; its change, `residual`, checks the
    closed form at m = p = 1.

    The sweeps take Lambda's eigensystem up to the sign of each
    eigenvector (see _sweep); sym_eig's sign convention is applied once,
    after the last sweep, to the E_inf that the solution returns and that
    the filter gain and closed loop are built from.

    A vector solve costs iterations + 1 sweeps plus a fixed per-call cost,
    both NumPy call overhead at 2x2 to 4x4, so checks, reductions and the
    elementwise eta, b_inf and rate run on lists, which round as the array
    form does; every product keeps its dot/@ call and order.

    D and Q are checked once, on entry (the model's matrices are finite by
    construction).  The sweeps call the unchecked cores of sym_eig and
    reverse_waterfill and keep only the checks that can fire mid-loop:
    DomainError for a non-finite Lambda (the covariances overflow) or a D so
    small that lambda_i/delta_i overflows; NumericError for a failed
    eigensolve, an allocation that misses D, a Sigma that is non-finite or
    exceeds _DIVERGENCE_CAP max|BB' + I|, a change equal (to 1e-9) to the
    change _LINEAR_LAG sweeps earlier (Sigma grows linearly), or no
    convergence in _MAX_ITER sweeps; at m = p = 1, for an unobserved mode
    with |a| >= 1 and a residual above 1e-11 |Sigma_inf|.  After the last
    sweep, a decoder scaling or filter gain outside the float range raises
    DomainError, and a failed closed-loop eigensolve NumericError.
    """
    if not 0.0 < D < math.inf:
        raise DomainError("solve_realization: distortion must be positive and finite")
    D = float(D)
    m, _, p, _ = model.dims
    q = _as_noise_diagonal(Q, p)
    A, B, C, N = model.A, model.B, model.C, model.N

    # _eigh_desc checks its own result; an overflowing BB' or NN' fails the loop's checks
    with np.errstate(over="ignore", invalid="ignore"):
        BBt = B @ B.T
        NNt = N @ N.T
        Sigma, iterations = _sigma_inf(A, BBt, C, NNt, D)
        full, (Lam, lam, E, xi, delta, saturated) = _sweep(A, BBt, C, NNt, Sigma, D)
        _, residual = _scale_and_change(full.ravel().tolist(), Sigma.ravel().tolist())
        if m == p == 1 and residual > _TOL * abs(float(Sigma[0, 0])):
            raise NumericError("solve_realization: the closed-form Sigma_inf misses the "
                               "fixed point")
        E = _sign_rows(E)
        # the array form's elementwise expressions, on the last sweep's lists
        eta = [1.0 - d / x if x > 0.0 else 0.0 for x, d in zip(lam, delta)]
        b_inf = [math.sqrt(e * d / s) for e, d, s in zip(eta, delta, q.tolist())]
        inv_active = [1.0 / x if e > 0.0 else 0.0 for x, e in zip(lam, eta)]
        eta_array = np.array(eta)
        gain = A @ Sigma @ C.T @ E.T @ (np.array(inv_active)[:, None] * E)
        closed_loop = A - gain @ (E.T @ (eta_array[:, None] * E)) @ C
    if not all(map(math.isfinite, b_inf + gain.ravel().tolist() + closed_loop.ravel().tolist())):
        raise DomainError("solve_realization: decoder or filter gain leaves the float range "
                          "(channel noise Q or a lambda_i too small)")

    return RealizationSolution(
        model=model,
        D=D,
        q=q,
        Sigma_inf=Sigma,
        Lambda_inf=Lam,
        E_inf=E,
        spectrum=np.array(lam),
        delta=np.array(delta),
        xi=xi,
        eta=eta_array,
        b_inf=np.array(b_inf),
        gain=gain,
        rate=_waterfill_rate(lam, delta),  # 0 when every delta_i is 0 or lambda_i
        iterations=iterations,
        residual=residual,
        saturated=saturated,
        closed_loop_radius=_spectral_radius(closed_loop),
    )


def _half_log2(x, context):
    # 0.5 log2(x) of a closed form's argument, which must stay positive and
    # finite: an underflow to 0 or overflow to inf leaves the float range
    if not 0.0 < x < math.inf:
        raise DomainError(f"{context}: log argument leaves the float range")
    return 0.5 * math.log2(x)


def rna_scalar_fully_observed(alpha, sigma_W, D):
    """Nonanticipative RDF 0.5 log2(alpha^2 + sigma_W^2/D) of the scalar fully
    observed source for |alpha| <= 1, 0 from the stationary variance
    sigma_W^2/(1 - alpha^2) on: rna_scalar_partially_observed at sigma_V = 0."""
    return rna_scalar_partially_observed(alpha, 1.0, sigma_W, 0.0, D)


def partially_observed_sigma(alpha, c, sigma_W, sigma_V, D):
    """Steady-state filter error variance Sigma_inf of the scalar partially
    observed source at distortion D: sW^2/(1 - a^2) once |a| < 1 and
    D >= c^2 sW^2/(1 - a^2) + sV^2 (saturated), else the largest real root of
    the cubic

        c^4 S^3 + ((2 - a^2) c^2 sV^2 - a^2 c^2 D - c^4 sW^2) S^2
                + ((1 - a^2) sV^4 - 2 c^2 sV^2 sW^2) S - sV^4 sW^2 = 0,

    obtained by clearing denominators in the scalar reduction of the
    modified Riccati fixed point S = a^2 S - a^2 c^2 S^2 H/lam + sW^2,
    lam = c^2 S + sV^2, H = 1 - D/lam, which holds below saturation only.
    (Sanity anchors: a = 0 factors as (S - sW^2)(S + sV^2/c^2)^2 = 0 with
    root sW^2; sV = 0 recovers the fully observed S = a^2 D/c^2 + sW^2.)
    Takes |a| <= 1 and checks the squares: c^2, sW^2 > 0, sV^2 >= 0, finite.
    """
    cc, bb, nn = c * c, sigma_W * sigma_W, sigma_V * sigma_V
    if not abs(alpha) <= 1.0:
        raise DomainError("requires |alpha| <= 1")
    if not (0.0 < cc < math.inf and 0.0 < bb < math.inf and 0.0 <= nn < math.inf):
        raise DomainError("requires c^2 and sigma_W^2 positive and finite, sigma_V^2 finite")
    if not 0.0 < D < math.inf:
        raise DomainError("distortion must be positive and finite")
    return _scalar_sigma(alpha, bb, c, nn, D)


def rna_scalar_partially_observed(alpha, c, sigma_W, sigma_V, D):
    """Nonanticipative RDF of the scalar partially observed source in
    bits/sample: 0.5 log2((c^2 Sigma_inf + sigma_V^2)/D) with Sigma_inf from
    partially_observed_sigma; 0 once D reaches the innovation variance
    lambda_1 = c^2 Sigma_inf + sigma_V^2."""
    sigma = partially_observed_sigma(alpha, c, sigma_W, sigma_V, D)
    lam1 = c * c * sigma + sigma_V * sigma_V
    return 0.0 if D >= lam1 else _half_log2(lam1 / D, "rna_scalar_partially_observed")


def _alpha1_variance(sigma_W, D, context):
    # sigma_W^2 on the region of classical_alpha1 and rate_loss_alpha1
    sW2 = sigma_W * sigma_W
    if not (sigma_W > 0.0 and 0.0 < D <= sW2 / 4.0):
        raise DomainError(f"{context} valid only for sigma_W > 0, 0 < D <= sigma_W^2/4")
    return sW2


def classical_alpha1(sigma_W, D):
    """Classical RDF 0.5 log2(sigma_W^2/D) of the alpha = 1 autoregressive
    source, valid only on 0 < D <= sigma_W^2/4."""
    return _half_log2(_alpha1_variance(sigma_W, D, "classical_alpha1") / D, "classical_alpha1")


def rate_loss_alpha1(sigma_W, D):
    """Rate loss 0.5 log2(1 + D/sigma_W^2) of causal codes for the alpha = 1
    autoregressive source on the same validity region as classical_alpha1."""
    sW2 = _alpha1_variance(sigma_W, D, "rate_loss_alpha1")
    return _half_log2(1.0 + D / sW2, "rate_loss_alpha1")
