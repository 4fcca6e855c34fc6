import math

import numpy as np
import pytest

from nardf.bsms import JointChain, joint_chain, optimal_reproduction
from nardf.errors import DomainError, NumericError
from nardf.excess import (
    exceedance_exponent,
    gaussian_chernoff_exponent,
    gaussian_error_recursion,
    hoeffding_bound,
    hoeffding_constants,
    is_reversible,
    lumped_distortion_chain,
    rate_function,
    rate_function_curve,
    reversible_bound,
    second_eigenvalue,
    simulate_excess_bsms,
)
from nardf.gauss import GaussModel, solve_realization
from nardf.numerics import BITS_PER_NAT, RngStream

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


def test_four_state_chain_not_reversible():
    # detailed balance fails for the asymmetric design (Kolmogorov cycle
    # products differ); the symmetric p = 1/2 design is the exception
    assert not is_reversible(CHAIN)
    assert is_reversible(joint_chain(optimal_reproduction(0.5, 0.2)))
    with pytest.raises(DomainError):
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
    assert is_reversible(lump)


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
    lump = lumped_distortion_chain(CHAIN)
    assert second_eigenvalue(lump) == pytest.approx(0.06417112299465248, abs=1e-12)


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
    with pytest.raises(DomainError):
        reversible_bound(CHAIN, 100, 0.1)  # not reversible


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


@pytest.mark.parametrize("n,exact", [(50, 0.13584), (200, 0.02292)])
def test_simulate_excess_matches_exact_tail(n, exact):
    tail = _exact_tail(0.3, 0.1, n, 0.15)
    assert tail == pytest.approx(exact, abs=5e-6)
    trials = 40_000
    emp = simulate_excess_bsms(0.3, 0.1, n, 0.15, trials, RngStream(15))
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
    assert rec.spectral_radius < 1.0
    assert rec.B2.shape == (1, 0)  # no observation noise


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
    # brute-force oracle: iterate the covariance recursion to stationarity
    P = np.zeros((2, 2))
    for _ in range(10_000):
        P = rec.A_tilde @ P @ rec.A_tilde.T + rec.noise_cov
    assert float(np.max(np.abs(P - rec.cov))) <= 1e-6


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
