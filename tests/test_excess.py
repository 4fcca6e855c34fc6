import dataclasses
import math

import numpy as np
import pytest

from nardf import excess, numerics
from nardf.bsms import JointChain, joint_chain, optimal_reproduction
from nardf.errors import DomainError, NumericError
from nardf.excess import (
    exceedance_exponent,
    gaussian_chernoff_exponent,
    gaussian_error_recursion,
    hoeffding_bound,
    hoeffding_constants,
    lumped_distortion_chain,
    rate_function,
    rate_function_curve,
    reversible_bound,
    second_eigenvalue,
    simulate_excess_bsms,
)
from nardf.gauss import GaussModel, solve_realization
from nardf.numerics import BITS_PER_NAT, RngStream, perron_eigenvalue

from conftest import step_matrix

DESIGN = optimal_reproduction(0.3, 0.1)
CHAIN = joint_chain(DESIGN)


# ------------------------------------------------------------ Hoeffding bound


def test_hoeffding_constants():
    # min{p, 1-p} min{alpha, beta, 1-alpha, 1-beta} = 0.3 * (1 - 21/22)
    assert hoeffding_constants(DESIGN) == pytest.approx(0.3 / 22.0, abs=1e-12)


def test_hoeffding_bound_values():
    assert hoeffding_bound(CHAIN, DESIGN, 3000, 0.1) == pytest.approx(
        0.9992716152633052, abs=1e-12
    )
    # nonincreasing in n, trivially <= 1
    vals = [hoeffding_bound(CHAIN, DESIGN, n, 0.1) for n in (2000, 4000, 8000, 16000)]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
    assert all(v <= 1.0 for v in vals)


def test_hoeffding_bound_validity():
    lam = hoeffding_constants(DESIGN)
    threshold = 2.0 / (lam * 0.1)
    assert threshold == pytest.approx(1466.6666666666, abs=1e-6)
    with pytest.raises(DomainError):
        hoeffding_bound(CHAIN, DESIGN, 1400, 0.1)  # below n > 2/(lambda gamma)
    with pytest.raises(DomainError):
        hoeffding_bound(CHAIN, DESIGN, 3000, 0.0)
    with pytest.raises(DomainError):
        hoeffding_bound(CHAIN, optimal_reproduction(0.3, 0.2), 3000, 0.1)


# ------------------------------------------------- reversibility and lumping


def _detailed_balance(chain):
    # pi(i) Pi(j, i) = pi(j) Pi(i, j) within 1e-10
    flow = chain.pi_matrix * chain.stationary[None, :]  # flow[j, i] = pi_i P(j|i)
    return float(np.max(np.abs(flow - flow.T))) <= 1e-10


def test_four_state_chain_not_reversible():
    # detailed balance fails for the asymmetric design (Kolmogorov cycle
    # products differ); the symmetric p = 1/2 design is the exception.  So
    # the reversible-chain bound takes the lump, and refuses the 4 states
    assert not _detailed_balance(CHAIN)
    assert _detailed_balance(joint_chain(optimal_reproduction(0.5, 0.2)))
    with pytest.raises(DomainError, match="lump the chain first"):
        second_eigenvalue(CHAIN)


def test_lumped_chain():
    lump = lumped_distortion_chain(CHAIN)
    assert lump.pi_matrix.shape == (2, 2)
    assert lump.stationary == pytest.approx([0.9, 0.1], abs=1e-12)
    assert np.allclose(lump.pi_matrix.sum(axis=0), 1.0, atol=1e-12)
    assert lump.mean_distortion == pytest.approx(0.1, abs=1e-12)
    # the exit rate of the mismatch class is the sub-chain Perron root
    rho_sub = (1.0 - DESIGN.beta) * 0.7 + (1.0 - DESIGN.alpha) * 0.3
    assert lump.pi_matrix[1, 1] == pytest.approx(rho_sub, abs=1e-12)
    # any two-state chain satisfies detailed balance
    assert _detailed_balance(lump)


def _symmetrised_lambda_2(chain):
    # oracle: a reversible chain's Pi is similar to the symmetric
    # D_pi^{-1/2} Pi D_pi^{1/2}; its smaller eigenvalue is lambda_2
    rt = np.sqrt(chain.stationary)
    S = chain.pi_matrix * (rt[None, :] / rt[:, None])
    return float(np.linalg.eigvalsh(0.5 * (S + S.T))[0])


def _two_state(a, b):
    # column-stochastic: a = P(0 -> 1), b = P(1 -> 0), stationary (b, a)/(a + b)
    return JointChain(states=((0, 0), (0, 1)), pi_matrix=np.array([[1.0 - a, b], [a, 1.0 - b]]),
                      stationary=np.array([b, a]) / (a + b), f=np.array([0.0, 1.0]))


def test_lumped_second_eigenvalue_closed_form():
    rng = np.random.default_rng(37)
    for _ in range(60):
        p = rng.uniform(0.02, 0.98)
        D = rng.uniform(0.01, 0.49)
        des = optimal_reproduction(p, D)
        lump = lumped_distortion_chain(joint_chain(des))
        assert second_eigenvalue(lump) == pytest.approx(
            (1.0 - 2.0 * p) * (des.alpha - des.beta), abs=1e-12
        )
        assert abs(second_eigenvalue(lump) - _symmetrised_lambda_2(lump)) <= 1e-15
    lump = lumped_distortion_chain(CHAIN)
    assert second_eigenvalue(lump) == pytest.approx(0.06417112299465248, abs=1e-12)


@pytest.mark.parametrize("a, b", [(0.7, 0.6), (0.9, 0.95), (0.55, 0.5), (1.0, 1.0),
                                  (0.2, 0.05), (0.01, 0.3)])
def test_second_eigenvalue_of_hand_built_chains(a, b):
    # a + b > 1 makes lambda_2 negative (anti-correlated); (1, 1) alternates
    chain = _two_state(a, b)
    assert _detailed_balance(chain)
    assert abs(second_eigenvalue(chain) - _symmetrised_lambda_2(chain)) <= 1e-15


@pytest.mark.parametrize("T", [[[0.5, 0.2], [0.6, 0.8]], [[1.2, 0.2], [-0.2, 0.8]],
                               [[math.nan, 0.2], [0.5, 0.8]]],
                         ids=["column-sum", "negative", "nan"])
def test_second_eigenvalue_refuses_a_non_stochastic_chain(T):
    chain = JointChain(states=((0, 0), (0, 1)), pi_matrix=np.array(T),
                       stationary=np.array([0.5, 0.5]), f=np.array([0.0, 1.0]))
    with pytest.raises(DomainError, match="column-stochastic"):
        second_eigenvalue(chain)


def test_lumpability_rejection():
    # a hand-built chain whose exit mass differs inside a class
    T = np.array(
        [
            [0.7, 0.4, 0.2, 0.2],
            [0.2, 0.3, 0.2, 0.2],
            [0.05, 0.15, 0.3, 0.3],
            [0.05, 0.15, 0.3, 0.3],
        ]
    )
    pi = np.linalg.matrix_power(T, 200)[:, 0]
    bad = JointChain(
        states=tuple((0, i) for i in range(4)),
        pi_matrix=T,
        stationary=pi,
        f=np.array([0.0, 0.0, 1.0, 1.0]),
    )
    with pytest.raises(DomainError):
        lumped_distortion_chain(bad)
    with pytest.raises(DomainError):
        lumped_distortion_chain(
            JointChain(
                states=bad.states, pi_matrix=T, stationary=pi, f=np.array([0.0, 0.5, 1.0, 1.0])
            )
        )


def test_reversible_bound_values():
    lump = lumped_distortion_chain(CHAIN)
    assert reversible_bound(lump, 2000, 0.1) == pytest.approx(
        5.288222039164321e-16, rel=1e-10
    )
    # lambda_2 = 0 at p = 1/2 gives the memoryless bound exp(-2 n gamma^2)
    lump5 = lumped_distortion_chain(joint_chain(optimal_reproduction(0.5, 0.2)))
    assert second_eigenvalue(lump5) == pytest.approx(0.0, abs=1e-12)
    assert reversible_bound(lump5, 100, 0.1) == pytest.approx(math.exp(-2.0), rel=1e-12)
    with pytest.raises(DomainError):
        reversible_bound(lump, 100, 0.0)
    with pytest.raises(DomainError, match="lump the chain first"):
        reversible_bound(CHAIN, 100, 0.1)  # four states, not reversible


def test_reversible_bound_beats_hoeffding_here():
    lump = lumped_distortion_chain(CHAIN)
    for n in (2000, 4000, 8000):
        assert reversible_bound(lump, n, 0.1) <= hoeffding_bound(CHAIN, DESIGN, n, 0.1)


# ------------------------------------------------------------- rate function


def test_rate_function_at_the_mean():
    val, lam_star = rate_function(CHAIN, 0.1)
    assert val <= 1e-9
    assert abs(lam_star) <= 1e-3


def test_rate_function_values():
    assert rate_function(CHAIN, 0.12)[0] == pytest.approx(
        0.0018371456121342444, abs=1e-9
    )
    assert rate_function(CHAIN, 0.2)[0] == pytest.approx(0.03800311946851247, abs=1e-9)
    # theta = 1: the chain must stay in the mismatch class, so
    # I(1) = -log of the class self-transition probability
    rho_sub = (1.0 - DESIGN.beta) * 0.7 + (1.0 - DESIGN.alpha) * 0.3
    assert rate_function(CHAIN, 1.0)[0] == pytest.approx(-math.log(rho_sub), abs=1e-6)
    with pytest.raises(DomainError):
        rate_function(CHAIN, 1.5)


def test_rate_function_shape_and_lump_agreement():
    thetas = np.linspace(0.1, 0.95, 18)
    curve = rate_function_curve(CHAIN, thetas)
    vals = curve.values
    assert np.all(np.diff(vals) >= -1e-12)  # nondecreasing above the mean
    second = np.diff(vals, 2)
    assert np.all(second >= -1e-8)  # convex along the grid
    assert np.all(np.diff(curve.lambda_star) >= -1e-6)
    # the two-state lump carries the same large-deviations behavior
    lump = lumped_distortion_chain(CHAIN)
    for th, v in zip(thetas, vals):
        assert rate_function(lump, float(th))[0] == pytest.approx(v, abs=1e-9)


@pytest.mark.parametrize("p,D", [(0.3, 0.1), (0.1, 0.05), (0.45, 0.3)])
def test_rate_function_curve_is_pointwise_rate_function(p, D):
    # a curve is, bit for bit, its thetas one at a time, in any shape of
    # theta, 0-size shapes included
    full = joint_chain(optimal_reproduction(p, D))
    thetas = np.concatenate(([0.0, full.mean_distortion, 1.0], np.linspace(D, 0.95, 9)))
    for chain in (full, lumped_distortion_chain(full)):
        curve = rate_function_curve(chain, thetas)
        points = [rate_function(chain, float(th)) for th in thetas]
        assert all(isinstance(v, float) and isinstance(ls, float) for v, ls in points)
        assert curve.values.tobytes() == np.array([v for v, _ in points]).tobytes()
        assert curve.lambda_star.tobytes() == np.array([ls for _, ls in points]).tobytes()
        vals, lams = rate_function(chain, thetas.reshape(3, 4))
        assert vals.shape == lams.shape == (3, 4)
        assert vals.tobytes() == curve.values.tobytes()
        assert lams.tobytes() == curve.lambda_star.tobytes()
        for shape in ((0,), (0, 3)):
            vals, lams = rate_function(chain, np.empty(shape))
            assert vals.shape == lams.shape == shape
            assert vals.dtype == lams.dtype == np.float64
    with pytest.raises(DomainError):
        rate_function(full, np.array([0.2, math.nan]))
    with pytest.raises(DomainError):
        rate_function_curve(full, [0.2, -0.1])


def _four_state_rate_function(chain, theta):
    # the retired route, kept as an oracle: per theta, one golden section on
    # the log Perron root of the 4-state chain tilted by e^{lam f}, the
    # largest real part of its eigenvalues (no lump, no closed form)
    def log_rho(lam):
        tilted = chain.pi_matrix * np.exp(lam * chain.f)[:, None]
        return math.log(float(np.max(np.linalg.eigvals(tilted).real)))

    vals, lams = [], []
    for t in np.asarray(theta, dtype=float).tolist():
        lam_star, val = numerics.maximize_concave_1d(
            lambda lam: lam * t - log_rho(lam), -50.0, 50.0, tol=1e-9)
        vals.append(max(val, 0.0))
        lams.append(lam_star)
    return np.array(vals), np.array(lams)


def _random_designs(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p = rng.uniform(0.02, 0.5)
        yield p, rng.uniform(0.005, 0.98) * p


def test_log_perron_lumped_is_the_four_state_log_perron_root():
    lams = np.linspace(-50.0, 50.0, 401)
    for p, D in [(0.1, 0.05), (0.25, 0.1), (0.4, 0.2), (0.45, 0.3)]:
        chain = joint_chain(optimal_reproduction(p, D))
        tilted = chain.pi_matrix * np.exp(np.outer(lams, chain.f))[:, :, None]
        ref = np.log([perron_eigenvalue(M) for M in tilted])
        rho = excess._perron_lumped(lumped_distortion_chain(chain).pi_matrix)
        got = np.log([rho(lam) for lam in lams.tolist()])
        # the absolute slack covers lam near 0, where log rho is 0 to rounding
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref) + 1e-15)


def test_rate_function_matches_the_four_state_route():
    # I to 1e-12 everywhere; lam* to 1e-6 where the Legendre objective has a
    # curvature to find it by (0.02 away from 0, 1 and the mean)
    rng = np.random.default_rng(11)
    for p, D in _random_designs(7, 20):
        chain = joint_chain(optimal_reproduction(p, D))
        mean = chain.mean_distortion
        thetas = np.concatenate(([0.0, mean, 1.0], rng.uniform(0.0, 1.0, 6)))
        vals, lams = rate_function(chain, thetas)
        ref_vals, ref_lams = _four_state_rate_function(chain, thetas)
        assert np.max(np.abs(vals - ref_vals)) <= 1e-12
        interior = np.minimum.reduce([thetas, 1.0 - thetas, np.abs(thetas - mean)]) >= 0.02
        assert np.max(np.abs(lams - ref_lams)[interior], initial=0.0) <= 1e-6


def _pair_measure_rate(a, b, theta):
    # I(theta) from the pair empirical measure of the two-state chain with
    # a = P(0 -> 1), b = P(1 -> 0): mu = (1 - theta, theta), the flow
    # x = n01 = n10 solves (1 - r) x^2 + r x - r theta (1 - theta) = 0 with
    # r = ab / ((1 - a)(1 - b)), taken in the form that does not cancel
    r = a * b / ((1.0 - a) * (1.0 - b))
    q = theta * (1.0 - theta)
    x = 2.0 * r * q / (r + math.sqrt(r * r + 4.0 * (1.0 - r) * r * q))
    n = {(0, 0): 1.0 - theta - x, (0, 1): x, (1, 0): x, (1, 1): theta - x}
    mu = (1.0 - theta, theta)
    step = {(0, 0): 1.0 - a, (0, 1): a, (1, 0): b, (1, 1): 1.0 - b}
    return sum(m * math.log(m / (mu[i] * step[i, j])) for (i, j), m in n.items() if m > 0.0)


def _two_state_chain(a, b):
    return JointChain(states=((0, 0), (0, 1)),
                      pi_matrix=np.array([[1.0 - a, b], [a, 1.0 - b]]),
                      stationary=np.array([b, a]) / (a + b), f=np.array([0.0, 1.0]))


def _closed_form_gap(a, b, chain, thetas):
    vals, _ = rate_function(chain, np.asarray(thetas))
    return max(abs(v - _pair_measure_rate(a, b, th)) for v, th in zip(vals, thetas))


def test_rate_function_matches_the_pair_measure_closed_form():
    for p, D in _random_designs(3, 30):
        chain = joint_chain(optimal_reproduction(p, D))
        T = lumped_distortion_chain(chain).pi_matrix
        a, b = T[1, 0], T[0, 1]
        thetas = [0.0, chain.mean_distortion, 1.0]
        assert _closed_form_gap(a, b, chain, thetas) <= 1e-12
        # mutation: the closed form with a and b swapped fails the check
        assert _closed_form_gap(b, a, chain, thetas) > 1e-6


@pytest.mark.parametrize("a,b", [(0.9, 0.8), (0.99, 0.95), (0.6, 0.7), (0.97, 0.2)])
def test_anticorrelated_chain_matches_the_pair_measure_closed_form(a, b):
    # a + b > 1, which no optimal BSMS chain reaches (lambda_2 = 1 - a - b < 0)
    chain = _two_state_chain(a, b)
    thetas = [0.0, a / (a + b), 1.0, 0.05, 0.3, 0.5, 0.7, 0.95]
    assert _closed_form_gap(a, b, chain, thetas) <= 1e-12
    assert _closed_form_gap(b, a, chain, thetas) > 1e-6


# rate_function_curve on the lumped route, values and lambda* bit for bit as
# float.hex strings.  The 4-state chain is lumped before the search, so its
# curve is the curve of its lump.  lambda* at theta = 0 is where the golden
# section stops (the objective is flat to rounding there).
PINNED_THETAS = [0.0, 0.05, 0.2, 0.35, 0.6, 0.9, 1.0]
PINNED_CURVES = {
    (0.1, 0.05): (
        [
            "0x1.380c4206abb91p-5", "0x0.0p+0",
            "0x1.21db68549f929p-4", "0x1.a0e1687db65a7p-3",
            "0x1.fb8b8380bb89bp-2", "0x1.f176aea11b8d6p-1", "0x1.3d035f3fd06d0p+0",
        ], [
            "-0x1.8ffffffff196fp+5", "0x1.141222c5f2ac4p-25",
            "0x1.7bb94ff58a998p-1", "0x1.01adeaac1dce0p+0",
            "0x1.53792b1495d36p+0", "0x1.0024351b60ed0p+1", "0x1.0174769a141c2p+5",
        ]),
    (0.25, 0.1): (
        [
            "0x1.7f152e07af400p-4", "0x1.c76bfd35db8f0p-7",
            "0x1.199c4a81a6ceep-5", "0x1.59dbbb60e1a81p-3",
            "0x1.127659548c78ap-1", "0x1.3a2620c82dc52p+0", "0x1.a0a0fbdab4290p+0",
        ], [
            "-0x1.8ffffffff196fp+5", "-0x1.43b2f35a65decp-1",
            "0x1.3ba52e092e3c8p-1", "0x1.23606ed10d5dcp+0",
            "0x1.cab0bf0733cf8p+0", "0x1.88afa8f201e4cp+1", "0x1.0d0507ded4d77p+5",
        ]),
    (0.4, 0.2): (
        [
            "0x1.bbbe0648aaa22p-3", "0x1.71f8dff29c2a8p-4",
            "0x1.3cdf927800000p-53", "0x1.d6140ad6608a8p-5",
            "0x1.6dc61194bc94ap-2", "0x1.11fa7b20a7ce8p+0", "0x1.82b62993bca00p+0",
        ], [
            "-0x1.8ffffffff196fp+5", "-0x1.826c770042452p+0",
            "0x1.8012741494fc0p-28", "0x1.70f22bf71c869p-1",
            "0x1.ab415666241b0p+0", "0x1.aeed7c7a60e06p+1", "0x1.1707f05f85bf1p+5",
        ]),
}


@pytest.mark.parametrize("p,D,kind", [(p, D, kind) for p, D in PINNED_CURVES
                                      for kind in ("joint", "lumped")],
                         ids=lambda part: str(part))
def test_rate_function_curve_is_pinned_bit_for_bit(p, D, kind):
    chain = joint_chain(optimal_reproduction(p, D))
    if kind == "lumped":
        chain = lumped_distortion_chain(chain)
    curve = rate_function_curve(chain, PINNED_THETAS)
    values, lambda_star = PINNED_CURVES[p, D]
    assert [float(v).hex() for v in curve.values] == values
    assert [float(v).hex() for v in curve.lambda_star] == lambda_star


def _bits(*values):
    return np.array(values, dtype=float).tobytes()


def test_scalar_theta_equals_the_one_entry_array_bit_for_bit():
    # a float theta gives floats, a one-entry array a one-entry array, with
    # the same bits.  ~200 random (p, D,
    # theta) with theta = 0, the mean and 1 among them, on the joint chain
    # and its lump, and hand-built two-state chains with a + b > 1
    rng = np.random.default_rng(29)
    chains = []
    for p, D in _random_designs(31, 25):
        full = joint_chain(optimal_reproduction(p, D))
        chains += [full, lumped_distortion_chain(full)]
    for _ in range(10):
        a = rng.uniform(0.5, 1.0)
        chains.append(_two_state(a, rng.uniform(1.0 - a, 1.0)))
    for k, chain in enumerate(chains):
        special = (0.0, chain.mean_distortion, 1.0)[k % 3]
        for theta in (special, rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), rng.uniform()):
            got = rate_function(chain, theta)
            vals, lams = rate_function(chain, np.array([theta]))
            assert all(type(v) is float for v in got)
            assert _bits(*got) == _bits(vals[0], lams[0]), (k, theta)


def test_tilt_check_rejects_on_both_paths():
    # e^50 T[1, 1] overflows: the tilted root is infinite at lam = 50
    huge = JointChain(states=((0, 0), (0, 1)), pi_matrix=np.full((2, 2), 1e300),
                      stationary=np.array([0.5, 0.5]), f=np.array([0.0, 1.0]))
    for theta in (0.7, np.array([0.7]), np.array([0.2, 0.7])):
        with pytest.raises(DomainError, match="tilted chain is not finite"):
            rate_function(huge, theta)


def _ix_lump(chain):
    # lumped_distortion_chain as it gathered each block with np.ix_
    f = np.asarray(chain.f, dtype=float)
    classes = [np.flatnonzero(f == v) for v in (0.0, 1.0)]
    P = np.asarray(chain.pi_matrix, dtype=float)
    T = np.empty((2, 2))
    for j, src in enumerate(classes):
        for i, dst in enumerate(classes):
            T[i, j] = float(P[np.ix_(dst, src)].sum(axis=0).mean())
    pi = np.asarray(chain.stationary, dtype=float)
    return T, np.array([float(pi[c].sum()) for c in classes])


def test_lump_equals_the_ix_gathers_and_keeps_a_lump():
    # plain indexing gives the bits of the np.ix_ gathers, also with the
    # states in another order and with classes of one and three states; a
    # chain that already is the lump comes back with its own arrays
    rng = np.random.default_rng(41)
    chains = [joint_chain(optimal_reproduction(p, D)) for p, D in _random_designs(43, 40)]
    for chain in chains[:10]:
        perm = rng.permutation(4)
        chains.append(JointChain(states=tuple(chain.states[k] for k in perm),
                                 pi_matrix=chain.pi_matrix[np.ix_(perm, perm)],
                                 stationary=chain.stationary[perm], f=chain.f[perm]))
    # one mismatch state and three matching ones whose exit masses agree
    P = np.array([[0.1, 0.2, 0.3, 0.35], [0.2, 0.1, 0.2, 0.2],
                  [0.3, 0.5, 0.25, 0.15], [0.4, 0.2, 0.25, 0.3]])
    f = np.array([0.0, 1.0, 0.0, 0.0])
    w, V = np.linalg.eig(P)
    pi = np.real(V[:, np.argmax(w.real)])
    chains.append(JointChain(states=_STATES4, pi_matrix=P, stationary=pi / pi.sum(), f=f))
    for chain in chains:
        lump = lumped_distortion_chain(chain)
        T, stat = _ix_lump(chain)
        assert lump.pi_matrix.tobytes() == T.tobytes()
        assert lump.stationary.tobytes() == stat.tobytes()
        again = lumped_distortion_chain(lump)
        assert (again.pi_matrix is lump.pi_matrix and again.stationary is lump.stationary
                and again.f is lump.f)


_STATES4 = ((0, 0), (0, 1), (1, 0), (1, 1))


def test_reducible_chain_is_rejected_before_the_search():
    # two absorbing states: tilting cannot connect them, so the chain is
    # checked once, on entry, and every entry point raises
    stuck = JointChain(states=((0, 0), (0, 1)), pi_matrix=np.eye(2),
                       stationary=np.array([0.5, 0.5]), f=np.array([0.0, 1.0]))
    with pytest.raises(DomainError, match="reducible"):
        rate_function(stuck, 0.7)
    with pytest.raises(DomainError, match="reducible"):
        rate_function_curve(stuck, [0.2, 0.7])
    with pytest.raises(DomainError, match="reducible"):
        exceedance_exponent(stuck, 0.7)  # above the stationary mean 0.5


def test_exceedance_exponent():
    assert exceedance_exponent(CHAIN, 0.05) == 0.0
    assert exceedance_exponent(CHAIN, 0.1) <= 1e-9  # at the mean itself
    assert exceedance_exponent(CHAIN, 0.12) == pytest.approx(
        rate_function(CHAIN, 0.12)[0], abs=1e-12
    )
    # clamped at theta = 1 for d beyond the distortion range
    assert exceedance_exponent(CHAIN, 1.2) == pytest.approx(
        rate_function(CHAIN, 1.0)[0], abs=1e-12
    )
    grid = [exceedance_exponent(CHAIN, d) for d in np.linspace(0.05, 0.9, 12)]
    assert all(b >= a - 1e-12 for a, b in zip(grid, grid[1:]))


# --------------------------------------------------------- empirical exceedance


def test_simulate_excess_degenerate_thresholds():
    assert simulate_excess_bsms(0.3, 0.1, 50, 0.0, 500, RngStream(1)) == 1.0
    assert simulate_excess_bsms(0.3, 0.1, 50, 1.01, 500, RngStream(1)) == 0.0
    with pytest.raises(DomainError):
        simulate_excess_bsms(0.3, 0.1, 0, 0.1, 500, RngStream(1))


def test_simulate_excess_reproducible():
    a = simulate_excess_bsms(0.3, 0.1, 200, 0.12, 2000, RngStream(6))
    b = simulate_excess_bsms(0.3, 0.1, 200, 0.12, 2000, RngStream(6))
    assert a == b


def _blockwise_excess_bsms(p, D, n, d, trials, rng):
    # reference: the block-at-a-time loop the lockstep simulator replaced,
    # one Python loop over n per _trial_blocks block
    lump = excess.lumped_distortion_chain(joint_chain(optimal_reproduction(p, D)))
    to_one = lump.pi_matrix[1]
    exceed = 0
    for g, size in numerics._trial_blocks(rng, trials):
        state = (g.random(size) < lump.stationary[1]).astype(np.intp)
        S = state.copy()
        for _ in range(n - 1):
            state = (g.random(size) < to_one[state]).astype(np.intp)
            S += state
        exceed += int(np.count_nonzero(S >= n * d - 1e-9))
    return exceed / trials


def _chunk_steps(trials, rows):
    return numerics._CHUNK_BYTES // (8 * trials * rows)


@pytest.mark.parametrize("trials", [1, 15, 16, 17, 2500])
@pytest.mark.parametrize("n", [1, 2, 50])
def test_lockstep_excess_matches_block_loop(trials, n):
    for d, stream in [(0.12, RngStream(21)), (0.2, RngStream(22).shard(3))]:
        got = simulate_excess_bsms(0.3, 0.1, n, d, trials, stream)
        assert got == _blockwise_excess_bsms(0.3, 0.1, n, d, trials, stream)


def test_lockstep_excess_short_last_chunk(monkeypatch):
    n = 2 * _chunk_steps(2500, 1) + 1  # two full chunks, then one step
    for d in (0.11, 0.13):
        assert simulate_excess_bsms(0.3, 0.1, n, d, 2500, RngStream(23)) == \
            _blockwise_excess_bsms(0.3, 0.1, n, d, 2500, RngStream(23))
    monkeypatch.setattr(numerics, "_CHUNK_BYTES", 3 * 8 * 17)  # 3-step chunks
    for n in (6, 7, 8):
        assert simulate_excess_bsms(0.3, 0.1, n, 0.15, 17, RngStream(24)) == \
            _blockwise_excess_bsms(0.3, 0.1, n, 0.15, 17, RngStream(24))


def test_lockstep_excess_on_an_anticorrelated_chain(monkeypatch):
    # optimal BSMS lumps have to_one[1] >= to_one[0]; the sampler's boolean
    # form of u < to_one[state] must not rely on that order
    T = np.array([[0.4, 0.9], [0.6, 0.1]])  # to_one = [0.6, 0.1]
    anti = JointChain(states=((0, 0), (0, 1)), pi_matrix=T,
                      stationary=np.array([0.6, 0.4]), f=np.array([0.0, 1.0]))
    monkeypatch.setattr(excess, "lumped_distortion_chain", lambda chain: anti)
    for trials in (17, 2500):
        for d in (0.4, 0.45):
            assert simulate_excess_bsms(0.3, 0.1, 60, d, trials, RngStream(29)) == \
                _blockwise_excess_bsms(0.3, 0.1, 60, d, trials, RngStream(29))


@pytest.mark.parametrize("trials,blocks", [(5, 5), (16, 16), (2500, 16)])
def test_lockstep_excess_keeps_one_generator_per_block(monkeypatch, trials, blocks):
    made = []
    original = RngStream.generator

    def counting(self):
        made.append(self.stream_id)
        return original(self)

    monkeypatch.setattr(RngStream, "generator", counting)
    simulate_excess_bsms(0.3, 0.1, 120, 0.12, trials, RngStream(25))
    assert made == [RngStream(25).shard(i).stream_id for i in range(blocks)]


def _exact_tail(p, D, n, d):
    # forward DP over (state, count) on the lumped chain, O(n^2):
    # a[s, k] = P(class s now, k mismatches so far); P(S_n >= n d) exactly
    lump = lumped_distortion_chain(joint_chain(optimal_reproduction(p, D)))
    a = np.zeros((2, n + 1))
    a[0, 0], a[1, 1] = lump.stationary
    for _ in range(n - 1):
        a = lump.pi_matrix @ a
        a[1] = np.concatenate(([0.0], a[1, :-1]))  # entering class 1 counts
    return float(a[:, math.ceil(n * d - 1e-9):].sum())


# the last two put n d on a count boundary, where it rounds to
# 3.0000000000000004 and 28.999999999999996: ">= n d" counts S >= 3 and
# S >= 29, and the adjacent counts' tails lie over 4 SE away
@pytest.mark.parametrize("D,n,d,exact", [(0.1, 50, 0.15, 0.13584), (0.1, 200, 0.15, 0.02292),
                                         (0.1, 10, 0.3, 0.08212), (0.25, 100, 0.29, 0.23407)],
                         ids=["50-0.13584", "200-0.02292", "10-0.3-boundary", "100-0.29-boundary"])
def test_simulate_excess_matches_exact_tail(D, n, d, exact):
    tail = _exact_tail(0.3, D, n, d)
    assert tail == pytest.approx(exact, abs=5e-6)
    trials = 40_000
    emp = simulate_excess_bsms(0.3, D, n, d, trials, RngStream(15))
    assert abs(emp - tail) <= 4.0 * math.sqrt(tail * (1.0 - tail) / trials)


def test_empirical_decay_tracks_rate_function():
    # -(1/n) log P(S_n/n >= d) should approach I(d) from below as n grows;
    # the two-point slope cancels the polynomial prefactor
    I = rate_function(CHAIN, 0.12)[0]
    base = RngStream(90)
    emp = {}
    for i, n in enumerate((500, 1000, 2000)):
        emp[n] = simulate_excess_bsms(0.3, 0.1, n, 0.12, 50_000, base.shard(i))
    assert emp[500] > emp[1000] > emp[2000] > 0.0
    slope = (math.log(emp[1000]) - math.log(emp[2000])) / 1000.0
    assert slope == pytest.approx(I, rel=0.25)


# ------------------------------------------------------- Gaussian error chain


def test_error_recursion_scalar():
    model = GaussModel.scalar(0.5, 1.0)
    sol = solve_realization(model, 0.5)
    rec = gaussian_error_recursion(model, sol)
    assert rec.cov[0, 0] == pytest.approx(sol.Sigma_inf[0, 0], abs=1e-10)
    assert abs(rec.step[0, 0]) < 1.0
    assert rec.step.shape == (3, 3)  # columns e, W, z: no observation noise V


def test_error_recursion_matches_iterated_lyapunov():
    model = GaussModel(
        A=np.array([[0.6, 0.2], [0.0, 0.5]]),
        B=np.eye(2),
        C=np.array([[1.0, 0.0], [0.3, 0.9]]),
        N=0.4 * np.eye(2),
    )
    sol = solve_realization(model, 1.2)
    rec = gaussian_error_recursion(model, sol)
    assert float(np.max(np.abs(rec.cov - sol.Sigma_inf))) <= 1e-8
    # brute-force oracle: iterate the covariance recursion of the test's
    # own step matrix, e' = A_tilde e + drive [W; V; z], to stationarity
    M = step_matrix(model, sol)
    A_tilde, drive = M[:2, :2], M[:2, 2:]
    P = np.zeros((2, 2))
    for _ in range(10_000):
        P = A_tilde @ P @ A_tilde.T + drive @ drive.T
    assert float(np.max(np.abs(P - rec.cov))) <= 1e-6


def test_error_recursion_at_a_large_covariance_scale():
    # B = 1e4 I puts Sigma_inf near 1e8, where an absolute 1e-8 match of
    # the two covariances is below rounding; the check scales with Sigma_inf,
    # and a mismatched Sigma_inf is still refused
    model = GaussModel(A=np.array([[0.6, 0.2], [0.0, 0.5]]), B=1e4 * np.eye(2),
                       C=np.array([[1.0, 0.0], [0.3, 0.9]]), N=0.4 * np.eye(2))
    sol = solve_realization(model, 2e8)
    rec = gaussian_error_recursion(model, sol)
    assert np.max(np.abs(rec.cov - sol.Sigma_inf)) <= 1e-12 * np.max(np.abs(sol.Sigma_inf))
    off = dataclasses.replace(sol, Sigma_inf=sol.Sigma_inf * (1.0 + 1e-6))
    with pytest.raises(NumericError, match="does not match"):
        gaussian_error_recursion(model, off)


# ----------------------------------------------------------- Chernoff exponent


def _chi2_exponent(d, D):
    # alpha = 0: per-step errors are IID N(0, D), S_n/D is chi-square(n);
    # Lambda(lam) = -0.5 log(1 - 2 lam D)
    return (d - D) / (2.0 * D) - 0.5 * math.log(d / D)


def test_chernoff_exponent_iid_matches_chi_square():
    model = GaussModel.scalar(0.0, 1.0)
    sol = solve_realization(model, 0.5)
    est = gaussian_chernoff_exponent(model, sol, 0.65, 200, 50_000, RngStream(12))
    assert est.exponent == pytest.approx(_chi2_exponent(0.65, 0.5), abs=max(4 * est.exponent_se, 2e-3))
    assert est.lambda_star > 0.0
    # the empirical log-MGF curve matches the closed form on the kept grid
    closed = -0.5 * np.log(1.0 - 2.0 * est.lambdas * 0.5)
    assert np.max(np.abs(est.mgf_log - closed)) <= 5e-3


def test_chernoff_exponent_at_the_mean_is_zero():
    model = GaussModel.scalar(0.5, 1.0)
    sol = solve_realization(model, 0.5)
    est = gaussian_chernoff_exponent(model, sol, 0.5, 100, 20_000, RngStream(13))
    assert est.exponent <= 2.0 * est.exponent_se + 1e-3


def test_chernoff_exponent_monotone_in_d():
    model = GaussModel.scalar(0.5, 1.0)
    sol = solve_realization(model, 0.5)
    vals = []
    for i, d in enumerate((0.6, 0.7, 0.8)):
        est = gaussian_chernoff_exponent(model, sol, d, 150, 20_000, RngStream(14))
        vals.append(est.exponent)
        assert est.n == 150 and est.trials == 20_000
    assert vals[0] < vals[1] < vals[2]
    # bits conversion stays consistent with the nats value
    assert vals[0] * BITS_PER_NAT == pytest.approx(vals[0] / math.log(2.0), rel=1e-12)


def _blockwise_distortion_sums(model, solution, rec, n, trials, rng):
    # reference: the block-at-a-time loop on the lockstep loop's step matrix.
    # The lockstep loop multiplies M by all trials at once; a one-trial block
    # of more trials is stepped as column 0 of a two-column copy, so that
    # numpy takes the same matrix-matrix product, not its matrix-vector one
    m, k, p, d = model.dims
    M = step_matrix(model, solution)
    chol = np.linalg.cholesky(rec.cov + 1e-15 * np.eye(m))
    out = []
    for g, size in numerics._trial_blocks(rng, trials):
        x = np.zeros((m + k + d + p, 2 if size == 1 < trials else size))
        x[:m, :size] = chol @ g.standard_normal((m, size))
        S = np.zeros(size)
        for _ in range(n):
            x[m:, :size] = g.standard_normal((k + d + p, size))
            y = M @ x
            err = y[m:m + p, :size]
            S += np.sum(err * err, axis=0)
            x[:m] = y[:m]
        out.append(S)
    return np.concatenate(out)


ACCEPTANCE_2X2 = GaussModel(
    A=np.array([[0.6, 0.2], [0.0, 0.5]]),
    B=np.eye(2),
    C=np.array([[1.0, 0.0], [0.3, 0.9]]),
    N=0.4 * np.eye(2),
)


def _sums_pair(model, D, n, trials, seed):
    sol = solve_realization(model, D)
    rec = gaussian_error_recursion(model, sol)
    got = np.zeros(trials)
    for _, err in excess._error_steps(rec, n, trials, RngStream(seed)):
        got += np.sum(err * err, axis=0)
    ref = _blockwise_distortion_sums(model, sol, rec, n, trials, RngStream(seed))
    return got, ref


@pytest.mark.parametrize("trials", [1, 15, 16, 17, 2500])
@pytest.mark.parametrize("n", [1, 2, 50])
@pytest.mark.parametrize("name", ["scalar", "scalar-observed", "2x2"])
def test_lockstep_distortion_sums_match_block_loop(name, n, trials):
    model, D = {
        "scalar": (GaussModel.scalar(0.5, 1.0), 0.5),
        "scalar-observed": (GaussModel.scalar(0.5, 1.0, 1.0, 0.5), 0.5),
        "2x2": (ACCEPTANCE_2X2, 1.2),
    }[name]
    got, ref = _sums_pair(model, D, n, trials, 26)
    assert got.shape == (trials,)
    if name == "2x2" and 1 < trials < 2 * numerics._BLOCKS:
        # the reference's one-trial blocks take numpy's matrix-vector
        # product, whose rounding differs from the matrix-matrix product
        # in the last bit; every block of two or more trials agrees exactly
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)
    else:
        assert got.tobytes() == ref.tobytes()


def test_lockstep_distortion_sums_short_last_chunk(monkeypatch):
    for model, D, rows in ((GaussModel.scalar(0.5, 1.0), 0.5, 2), (ACCEPTANCE_2X2, 1.2, 6)):
        n = 2 * _chunk_steps(2500, rows) + 1
        got, ref = _sums_pair(model, D, n, 2500, 27)
        assert got.tobytes() == ref.tobytes()
    monkeypatch.setattr(numerics, "_CHUNK_BYTES", 3 * 8 * 6 * 48)  # 3-step chunks
    for n in (6, 7, 8):
        got, ref = _sums_pair(ACCEPTANCE_2X2, 1.2, n, 48, 28)
        assert got.tobytes() == ref.tobytes()


def test_chernoff_guards():
    model = GaussModel.scalar(0.5, 1.0)
    sol = solve_realization(model, 0.5)
    with pytest.raises(DomainError):
        gaussian_chernoff_exponent(model, sol, 0.0, 100, 1000, RngStream(1))
    with pytest.raises(DomainError):
        gaussian_chernoff_exponent(model, sol, 0.6, 100, 5, RngStream(1))
    with pytest.raises(DomainError):
        gaussian_chernoff_exponent(
            model, sol, 0.6, 100, 1000, RngStream(1), lambda_grid=[-0.1, 0.2]
        )
    with pytest.raises(NumericError):
        # a tilt far beyond 1/(2 delta) has no effective samples
        gaussian_chernoff_exponent(
            model, sol, 0.6, 50, 1000, RngStream(1), lambda_grid=[5.0]
        )
