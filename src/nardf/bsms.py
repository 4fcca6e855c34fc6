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
from .numerics import _entropy_gap, maximize_concave_1d

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
    """Nonanticipative RDF of the BSMS(p) in bits/sample, as a float.

    H(m) - H(D) with m = 1-p-D+2pD for D <= 1/2, and 0 above.  D = 0 gives
    the entropy rate H(p) (the limit value).  H(m) = H(1 - m), and for
    p <= 1/2 (R^na is symmetric under p -> 1 - p) 1 - m = D + p(1 - 2D)
    exceeds D by p(1 - 2D), from which the difference is taken
    (_entropy_gap): full relative precision for every p and D.
    """
    p, D = float(p), float(D)
    _check_p(p)
    if not D >= 0.0:
        raise DomainError("distortion must be nonnegative")
    if D > 0.5:
        return 0.0
    if p > 0.5:
        p = 1.0 - p  # exact
    return _entropy_gap(D, p * (1.0 - 2.0 * D), (1.0 - 2.0 * p) * (1.0 - 2.0 * D))


@dataclass(frozen=True)
class BsmsDesign:
    """Optimal stationary reproduction of the BSMS(p) at distortion D.

    kernel[y, y_prev, x] is Q*(y | y_prev, x); marginal[y, y_prev] is the
    reproduction marginal P*(y | y_prev), which coincides with the source
    kernel.  Every kernel entry, 1 - alpha and 1 - beta included, comes from
    its closed form, with full relative precision.
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
    p, D = float(p), float(D)
    _check_p(p)
    if not 0.0 < D < 0.5:
        raise DomainError("optimal reproduction is degenerate unless 0 < D < 1/2")
    # m = 1 - p - D + 2pD and 1 - m as sums of nonnegative terms (1 - p is
    # exact for p >= 1/2), then alpha, beta and their complements
    # 1 - alpha = pD/m and 1 - beta = D(1 - p)/(1 - m) without a subtraction
    m = (1.0 - p) * (1.0 - 2.0 * D) + D
    u = p * (1.0 - 2.0 * D) + D
    alpha, alpha_c = (1.0 - p) * (1.0 - D) / m, p * D / m
    beta, beta_c = p * (1.0 - D) / u, (1.0 - p) * D / u
    # y agrees with y_prev when x == y_prev (keep w.p. alpha), and with x
    # otherwise (track w.p. beta)
    kernel = np.array([[[alpha, beta_c], [beta, alpha_c]],
                       [[alpha_c, beta], [beta_c, alpha]]])
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
    """Stationary joint chain of (x_t, y_t), states in the order (0,0),
    (0,1), (1,0), (1,1).

    pi_matrix is column-stochastic: pi_matrix[next, prev].  stationary is
    its stationary law and f the distortion of each state.
    """

    pi_matrix: np.ndarray = field(repr=False)
    stationary: np.ndarray = field(repr=False)
    f: np.ndarray = field(repr=False)

    @property
    def mean_distortion(self):
        return float(self.stationary @ self.f)


_STATES = ((0, 0), (0, 1), (1, 0), (1, 1))


def joint_chain(design: BsmsDesign) -> JointChain:
    """Joint transition matrix Pi[(x,y),(x',y')] = P(x|x') Q*(y|y',x) and its
    stationary law.  The optimal chain is symmetric under flipping both bits
    and has P(x != y) = D, so the law is ((1-D)/2, D/2, D/2, (1-D)/2) in
    closed form; NumericError if Pi does not keep it (to 1e-12)."""
    p = design.p
    Pi = np.empty((4, 4))
    for j, (xp, yp) in enumerate(_STATES):
        for i, (x, y) in enumerate(_STATES):
            px = 1.0 - p if x == xp else p
            Pi[i, j] = px * design.kernel[y, yp, x]
    if float(np.max(np.abs(Pi.sum(axis=0) - 1.0))) > 1e-12:
        raise NumericError("joint_chain: columns do not sum to 1")
    D = design.D
    pi = np.array([0.5 * (1.0 - D), 0.5 * D, 0.5 * D, 0.5 * (1.0 - D)])
    if float(np.max(np.abs(Pi @ pi - pi))) > 1e-12:
        raise NumericError("joint_chain: closed-form law is not stationary")
    return JointChain(pi_matrix=Pi, stationary=pi, f=np.array([0.0, 1.0, 1.0, 0.0]))


def verify_tilted_form(design: BsmsDesign):
    """Check the exponential-family form of the optimal kernel.

    Q*(y|y',x) must equal e^{s rho(x,y)} P*(y|y') / Phi(x,y') with the
    normalizer Phi(x,y') = sum_y e^{s rho(x,y)} P*(y|y') and s = log(D/(1-D)).
    Returns (s, max relative deviation) as floats; s <= 0 in nats.
    NumericError above 1e-8.  The kernel stores 1 - alpha and 1 - beta in
    closed form, so the check holds to rounding at every valid (p, D)."""
    s = math.log(design.D) - math.log1p(-design.D)
    dev = 0.0
    for x in (0, 1):
        for yp in (0, 1):
            weights = [math.exp(s * (x != y)) * design.marginal[y, yp] for y in (0, 1)]
            phi = weights[0] + weights[1]
            for y in (0, 1):
                q = design.kernel[y, yp, x]
                dev = max(dev, abs(q - weights[y] / phi) / max(q, 1e-300))
    if not (s <= 0.0) or dev > 1e-8:
        raise NumericError("verify_tilted_form: no consistent multiplier s")
    return s, float(dev)


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
    clamped at 0: it is 0 from D = p on (the RDF is 0 from D = 1/2 on), and
    below p the difference is taken from p - D at full relative precision.
    The flag reports whether the bound is tight (D <= D_c)."""
    p, D = float(p), float(D)
    if not 0.0 < p <= 0.5:
        raise DomainError("classical_gray requires 0 < p <= 0.5")
    if not D >= 0.0:
        raise DomainError("distortion must be nonnegative")
    value = _entropy_gap(D, p - D, 1.0 - 2.0 * p) if D < p else 0.0
    return value, D <= gray_critical_distortion(p)


def gray_critical_distortion(p):
    """D_c below which Gray's bound is the exact classical RDF."""
    if not 0.0 < p <= 0.5:
        raise DomainError("gray_critical_distortion requires 0 < p <= 0.5")
    q = 1.0 - p
    return 0.5 * (1.0 - math.sqrt(1.0 - (p / q) ** 2))


def rate_loss_bound(p, D):
    """Upper bound, in bits/sample, on rna_bsms(p, D) minus the classical RDF:
    H(m) - H(p) for D <= p, else H(m) - H(D).  H(m) = H(1 - m), and
    1 - m = p + D(1 - 2p) = D + p(1 - 2D): each difference is taken from its
    excess over p or D at full relative precision, as in rna_bsms."""
    p, D = float(p), float(D)
    if not (0.0 <= p <= 0.5 and 0.0 <= D <= 0.5):
        raise DomainError("rate_loss_bound requires p, D in [0, 1/2]")
    w = (1.0 - 2.0 * p) * (1.0 - 2.0 * D)  # 1 - 2(1 - m)
    if D <= p:
        return _entropy_gap(p, D * (1.0 - 2.0 * p), w)
    return _entropy_gap(D, p * (1.0 - 2.0 * D), w)


def max_rate_loss():
    """Maximizer (p*, D*) and value of rate_loss_bound over [0, 1/2]^2.

    With m = 1 - p - D + 2pD = 1/2 + (1 - 2p)(1 - 2D)/2 >= 1/2, m falls and
    H(m) rises as p grows on p <= D, or as D grows on D <= p.  So the bound
    rises toward the crease D = p from both sides, and its maximum lies on
    the crease, where RL(p, p) = H(1 - 2p + 2p^2) - H(p) is concave on
    [0, 1/4] (it turns convex near p = 0.275) and is maximized by golden
    section.  H(1 - 2p + 2p^2) = H(2p(1 - p)), and 2p(1 - p) exceeds p by
    p(1 - 2p), from which the difference is taken, as in rate_loss_bound.
    """
    p, value = maximize_concave_1d(
        lambda t: _entropy_gap(t, t * (1.0 - 2.0 * t), (1.0 - 2.0 * t) ** 2), 0.0, 0.25)
    return p, p, value
