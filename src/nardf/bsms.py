"""Binary symmetric Markov source (BSMS) under single-letter Hamming distortion.

Closed-form nonanticipative RDF, the optimal stationary reproduction kernel,
the induced joint (source, reproduction) Markov chain, Gray's classical-RDF
bound, and rate-loss bounds versus the classical RDF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericError
from .numerics import binary_entropy, maximize_concave_1d

__all__ = [
    "BsmsDesign",
    "JointChain",
    "rna_bsms",
    "optimal_reproduction",
    "joint_chain",
    "verify_tilted_form",
    "directed_info_rate",
    "classical_gray",
    "gray_critical_distortion",
    "rate_loss_bound",
    "max_rate_loss",
]


def _check_p(p):
    if not 0.0 < p < 1.0:
        raise DomainError("BSMS transition probability must satisfy 0 < p < 1")


def rna_bsms(p, D):
    """Nonanticipative RDF of the BSMS(p) in bits/sample.

    H(m) - H(D) with m = 1-p-D+2pD for D <= 1/2, and 0 above.  D = 0 gives
    the entropy rate H(p) (the limit value).
    """
    _check_p(p)
    if D < 0.0:
        raise DomainError("distortion must be nonnegative")
    if D > 0.5:
        return 0.0
    m = 1.0 - p - D + 2.0 * p * D
    return max(binary_entropy(m) - binary_entropy(D), 0.0)


@dataclass(frozen=True)
class BsmsDesign:
    """Optimal stationary reproduction of the BSMS(p) at distortion D.

    kernel[y, y_prev, x] is Q*(y | y_prev, x); marginal[y, y_prev] is the
    reproduction marginal P*(y | y_prev), which coincides with the source
    kernel.
    """

    p: float
    D: float
    m: float
    alpha: float
    beta: float
    rate: float
    kernel: np.ndarray = field(repr=False)
    marginal: np.ndarray = field(repr=False)


def optimal_reproduction(p, D):
    _check_p(p)
    if not 0.0 < D < 0.5:
        raise DomainError("optimal reproduction is degenerate unless 0 < D < 1/2")
    m = 1.0 - p - D + 2.0 * p * D
    alpha = (1.0 - p) * (1.0 - D) / m
    beta = p * (1.0 - D) / (p + D - 2.0 * p * D)
    kernel = np.empty((2, 2, 2))
    # y agrees with y_prev when x == y_prev (keep w.p. alpha), and with x
    # otherwise (track w.p. beta)
    kernel[0, 0, 0] = alpha
    kernel[0, 0, 1] = 1.0 - beta
    kernel[0, 1, 0] = beta
    kernel[0, 1, 1] = 1.0 - alpha
    kernel[1] = 1.0 - kernel[0]
    marginal = np.array([[1.0 - p, p], [p, 1.0 - p]])
    return BsmsDesign(
        p=p,
        D=D,
        m=m,
        alpha=alpha,
        beta=beta,
        rate=rna_bsms(p, D),
        kernel=kernel,
        marginal=marginal,
    )


@dataclass(frozen=True)
class JointChain:
    """Stationary joint chain of (x_t, y_t) with states (0,0),(0,1),(1,0),(1,1).

    pi_matrix is column-stochastic: pi_matrix[next, prev].
    """

    states: tuple
    pi_matrix: np.ndarray = field(repr=False)
    stationary: np.ndarray = field(repr=False)
    f: np.ndarray = field(repr=False)

    @property
    def mean_distortion(self):
        return float(self.stationary @ self.f)


_STATES = ((0, 0), (0, 1), (1, 0), (1, 1))


def joint_chain(design: BsmsDesign) -> JointChain:
    """Joint transition matrix Pi[(x,y),(x',y')] = P(x|x') Q*(y|y',x) and its
    stationary vector (eigenvector of Pi at eigenvalue 1)."""
    p = design.p
    Pi = np.empty((4, 4))
    for j, (xp, yp) in enumerate(_STATES):
        for i, (x, y) in enumerate(_STATES):
            px = 1.0 - p if x == xp else p
            Pi[i, j] = px * design.kernel[y, yp, x]
    if float(np.max(np.abs(Pi.sum(axis=0) - 1.0))) > 1e-12:
        raise NumericError("joint_chain: columns do not sum to 1")
    # eigenvector at eigenvalue 1, computed exactly: (Pi - I) pi = 0, sum pi = 1
    A = Pi - np.eye(4)
    A[3, :] = 1.0
    # a p near 0 leaves the chain nearly reducible and this system singular
    try:
        pi = np.linalg.solve(A, np.array([0.0, 0.0, 0.0, 1.0]))
    except np.linalg.LinAlgError:
        raise NumericError("joint_chain: singular stationary system") from None
    f = np.array([0.0, 1.0, 1.0, 0.0])
    if not np.isfinite(pi).all() or abs(float(pi @ f) - design.D) > 1e-9:
        raise NumericError("joint_chain: stationary mean distortion != D")
    return JointChain(states=_STATES, pi_matrix=Pi, stationary=pi, f=f)


def verify_tilted_form(design: BsmsDesign):
    """Check the exponential-family form of the optimal kernel.

    Q*(y|y',x) must equal e^{s rho(x,y)} P*(y|y') / Phi(x,y') with the
    normalizer Phi(x,y') = sum_y e^{s rho(x,y)} P*(y|y'), and the associated
    lambda = 1/Phi must integrate to 1 against e^{s rho} P*(dy|y').  Returns
    (s, max relative deviation); s <= 0 in nats.
    """
    ratio = (1.0 - design.alpha) / design.alpha * (1.0 - design.p) / design.p
    s = math.log(ratio)
    dev = 0.0
    for x in (0, 1):
        for yp in (0, 1):
            weights = [math.exp(s * (x != y)) * design.marginal[y, yp] for y in (0, 1)]
            phi = weights[0] + weights[1]
            lam = 1.0 / phi
            dev = max(dev, abs(lam * phi - 1.0))
            for y in (0, 1):
                q = design.kernel[y, yp, x]
                dev = max(dev, abs(q - weights[y] / phi) / max(q, 1e-300))
    if not (s <= 0.0) or dev > 1e-8:
        raise NumericError("verify_tilted_form: no consistent multiplier s")
    return s, dev


def directed_info_rate(chain: JointChain, design: BsmsDesign):
    """Directed information rate of the joint chain in bits/sample.

    Sums P(x_t, y_t, y_{t-1}) log2(Q*(y_t|y_{t-1},x_t) / P*(y_t|y_{t-1}))
    over the stationary distribution; equals rna_bsms(p, D).
    """
    total = 0.0
    for j, (xp, yp) in enumerate(_STATES):
        w = chain.stationary[j]
        for i, (x, y) in enumerate(_STATES):
            prob = w * chain.pi_matrix[i, j]
            if prob > 0.0:
                total += prob * math.log2(
                    design.kernel[y, yp, x] / design.marginal[y, yp]
                )
    return total


def classical_gray(p, D):
    """Gray's lower bound H(p) - H(D) on the classical RDF of the BSMS(p),
    clamped at 0; the flag reports whether the bound is tight (D <= D_c)."""
    if not 0.0 < p <= 0.5:
        raise DomainError("classical_gray requires 0 < p <= 0.5")
    if D < 0.0:
        raise DomainError("distortion must be nonnegative")
    value = max(binary_entropy(p) - binary_entropy(min(D, 1.0)), 0.0)
    return value, D <= gray_critical_distortion(p)


def gray_critical_distortion(p):
    """D_c below which Gray's bound is the exact classical RDF."""
    if not 0.0 < p <= 0.5:
        raise DomainError("gray_critical_distortion requires 0 < p <= 0.5")
    q = 1.0 - p
    return 0.5 * (1.0 - math.sqrt(1.0 - (p / q) ** 2))


def rate_loss_bound(p, D):
    """Upper bound, in bits/sample, on rna_bsms(p, D) minus the classical RDF:
    H(m) - H(p) for D <= p, else H(m) - H(D)."""
    if not (0.0 <= p <= 0.5 and 0.0 <= D <= 0.5):
        raise DomainError("rate_loss_bound requires p, D in [0, 1/2]")
    m = 1.0 - p - D + 2.0 * p * D
    if D <= p:
        return binary_entropy(m) - binary_entropy(p)
    return binary_entropy(m) - binary_entropy(D)


def max_rate_loss():
    """Maximizer (p*, D*) and value of rate_loss_bound over [0, 1/2]^2.

    With m = 1 - p - D + 2pD = 1/2 + (1 - 2p)(1 - 2D)/2 >= 1/2, m falls and
    H(m) rises as p grows on p <= D, or as D grows on D <= p.  So the bound
    rises toward the crease D = p from both sides, and its maximum lies on
    the crease, where RL(p, p) = H(1 - 2p + 2p^2) - H(p) is concave on
    [0, 1/4] (it turns convex near p = 0.275) and is maximized by golden
    section.
    """
    p, value = maximize_concave_1d(
        lambda t: binary_entropy(1.0 - t - t + 2.0 * t * t) - binary_entropy(t), 0.0, 0.25)
    return p, p, value
