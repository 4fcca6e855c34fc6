import math

import numpy as np
import pytest

from nardf import excess
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
from nardf.numerics import BITS_PER_NAT, RngStream, perron_eigenvalue

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


@pytest.mark.parametrize("p,D", [(0.3, 0.1), (0.1, 0.05), (0.45, 0.3)])
def test_rate_function_curve_is_pointwise_rate_function(p, D):
    # one lockstep golden section over all theta gives, bit for bit, what
    # one golden section per theta gives
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
    with pytest.raises(DomainError):
        rate_function(full, np.array([0.2, math.nan]))
    with pytest.raises(DomainError):
        rate_function_curve(full, [0.2, -0.1])


def test_log_perron_tilted_is_the_per_tilt_log_perron_root():
    # the stacked path must round like the one-tilt expression it replaced;
    # np.log on an array differs from math.log in the last bit for ~2% of
    # arguments near 1, which moved lambda* by up to ~1e-7
    lams = np.concatenate((np.linspace(-1.0, 1.0, 301), np.linspace(-50.0, 50.0, 101)))
    for chain in (CHAIN, lumped_distortion_chain(CHAIN)):
        got = excess._log_perron_tilted(chain, lams)
        ref = [math.log(perron_eigenvalue(chain.pi_matrix * np.exp(lam * chain.f)[:, None]))
               for lam in lams]
        assert got.tobytes() == np.array(ref).tobytes()


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
    for g, size in excess._trial_blocks(rng, trials):
        state = (g.random(size) < lump.stationary[1]).astype(np.intp)
        S = state.copy()
        for _ in range(n - 1):
            state = (g.random(size) < to_one[state]).astype(np.intp)
            S += state
        exceed += int(np.count_nonzero(S >= n * d - 1e-9))
    return exceed / trials


def _chunk_steps(trials, rows):
    return excess._CHUNK_BYTES // (8 * trials * rows)


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
    monkeypatch.setattr(excess, "_CHUNK_BYTES", 3 * 8 * 17)  # 3-step chunks
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


def _blockwise_distortion_sums(model, solution, rec, n, trials, rng):
    # reference: the block-at-a-time loop the lockstep sums replaced
    m, k, p, d = model.dims
    C, N = model.C, model.N
    E, eta, b_inf = solution.E_inf, solution.eta, solution.b_inf
    shrink = eta - 1.0
    sq = np.sqrt(solution.q)
    chol = np.linalg.cholesky(rec.cov + 1e-15 * np.eye(m))
    A_t, B1, B2, B3 = rec.A_tilde, rec.B1, rec.B2, rec.B3
    out = []
    for g, size in excess._trial_blocks(rng, trials):
        e = chol @ g.standard_normal((m, size))
        S = np.zeros(size)
        for _ in range(n):
            W = g.standard_normal((k, size))
            V = g.standard_normal((d, size))
            Vc = sq[:, None] * g.standard_normal((p, size))
            K = C @ e + (N @ V if d else 0.0)
            err = shrink[:, None] * (E @ K) + b_inf[:, None] * Vc
            S += np.sum(err * err, axis=0)
            e = A_t @ e + B1 @ W - (B2 @ V if d else 0.0) - B3 @ Vc
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
    got = excess._simulate_distortion_sums(model, sol, rec, n, trials, RngStream(seed))
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
    if name == "2x2" and 1 < trials < 2 * excess._BLOCKS:
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
    monkeypatch.setattr(excess, "_CHUNK_BYTES", 3 * 8 * 6 * 48)  # 3-step chunks
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
