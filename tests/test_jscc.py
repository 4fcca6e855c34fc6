import math

import numpy as np
import pytest

from nardf.errors import DomainError, NumericError
from nardf.gauss import GaussModel, rna_scalar_fully_observed, solve_realization
from nardf.jscc import (
    capacity_waterfill,
    design_feedback_scalar,
    design_iid_scalar,
    design_nofeedback_scalar,
    match_power,
    matched_channel_noise,
    min_steps_with_se,
    schalkwijk_kailath,
    simulate_scalar,
    simulate_vector,
)
from nardf.numerics import RngStream

TEST_MODEL = GaussModel(
    A=np.array([[0.6, 0.2], [0.0, 0.5]]),
    B=np.eye(2),
    C=np.array([[1.0, 0.0], [0.3, 0.9]]),
    N=0.4 * np.eye(2),
)


# ------------------------------------------------------------------ capacity


def test_capacity_waterfill_examples():
    cap, alloc = capacity_waterfill([1.0], 1.0)
    assert cap == pytest.approx(0.5, abs=1e-12)
    assert alloc == pytest.approx([1.0], abs=1e-12)
    cap, alloc = capacity_waterfill([1.0, 1.0], 2.0)
    assert cap == pytest.approx(1.0, abs=1e-12)
    assert alloc == pytest.approx([1.0, 1.0], abs=1e-10)
    # a very noisy channel gets nothing at low power
    cap, alloc = capacity_waterfill([1.0, 100.0], 1.0)
    assert cap == pytest.approx(0.5, abs=1e-12)
    assert alloc == pytest.approx([1.0, 0.0], abs=1e-10)
    cap, alloc = capacity_waterfill([1.0, 2.0], 3.0)
    assert alloc == pytest.approx([2.0, 1.0], abs=1e-10)
    assert cap == pytest.approx(0.5 * math.log2(3.0) + 0.5 * math.log2(1.5), abs=1e-10)
    with pytest.raises(DomainError):
        capacity_waterfill([1.0], 0.0)
    with pytest.raises(DomainError):
        capacity_waterfill([0.0, 1.0], 1.0)


@pytest.mark.parametrize("noise", [[1.0], [1.0, 2.0]])
@pytest.mark.parametrize("P", [math.nan, math.inf])
def test_capacity_waterfill_non_finite_power(noise, P):
    with pytest.raises(DomainError):
        capacity_waterfill(noise, P)


def test_capacity_waterfill_is_optimal():
    rng = np.random.default_rng(13)
    for _ in range(30):
        q = rng.uniform(0.1, 5.0, rng.integers(1, 6))
        P = rng.uniform(0.1, 10.0)
        cap, alloc = capacity_waterfill(q, P)
        assert float(alloc.sum()) == pytest.approx(P, abs=1e-9)
        assert np.all(alloc >= 0.0)
        for _ in range(20):
            a = rng.dirichlet(np.ones(q.size)) * P
            feasible = float(0.5 * np.sum(np.log2(1.0 + a / q)))
            assert cap >= feasible - 1e-9


# -------------------------------------------------------------- power matching


def test_match_power_identity_noise():
    sol = solve_realization(TEST_MODEL, 1.2)
    pm = match_power(sol)
    # P*_i = q_i (lambda_i - delta_i) / delta_i with q = 1
    expect = (sol.spectrum - sol.delta) / sol.delta
    assert pm.allocation == pytest.approx(expect, abs=1e-9)
    assert pm.P == pytest.approx(float(expect.sum()), abs=1e-9)
    # identity channel noise does not water-fill onto this allocation
    assert not pm.matched
    assert pm.capacity >= sol.rate - 1e-12  # capacity of the *optimal* split


def test_match_power_matched_noise():
    sol = solve_realization(TEST_MODEL, 1.2)
    q = matched_channel_noise(sol)
    assert q == pytest.approx(sol.delta / sol.spectrum, abs=1e-12)
    sol_m = solve_realization(TEST_MODEL, 1.2, Q=q)
    assert sol_m.rate == pytest.approx(sol.rate, abs=1e-10)
    pm = match_power(sol_m)
    assert pm.matched
    assert pm.capacity == pytest.approx(sol_m.rate, abs=1e-10)
    # with q_i = delta_i/lambda_i the per-channel power is eta_i
    assert pm.allocation == pytest.approx(sol_m.eta, abs=1e-9)
    # scale moves noise and power together, capacity pinned to the rate
    q2 = matched_channel_noise(sol, scale=2.0)
    pm2 = match_power(solve_realization(TEST_MODEL, 1.2, Q=q2))
    assert pm2.matched
    assert pm2.P == pytest.approx(2.0 * pm.P, rel=1e-9)
    with pytest.raises(DomainError):
        matched_channel_noise(sol, scale=0.0)


def test_match_power_scalar_always_matched():
    sol = solve_realization(GaussModel.scalar(0.5, 1.0), 0.5)
    pm = match_power(sol)
    assert pm.matched
    assert pm.capacity == pytest.approx(sol.rate, abs=1e-10)


# -------------------------------------------------------------- scalar designs


@pytest.mark.parametrize(
    "make,args",
    [
        (design_feedback_scalar, (0.5, 1.0, 1.0, math.nan)),
        (design_feedback_scalar, (0.5, 1.0, 1.0, math.inf)),
        (design_feedback_scalar, (math.nan, 1.0, 1.0, 1.0)),
        (design_feedback_scalar, (0.5, math.nan, 1.0, 1.0)),
        (design_feedback_scalar, (0.5, 1.0, math.inf, 1.0)),
        (design_nofeedback_scalar, (0.5, 1.0, 1.0, math.inf)),
        (design_nofeedback_scalar, (0.5, 1.0, math.nan, 1.0)),
        (design_iid_scalar, (1.0, 1.0, math.inf)),
        (design_iid_scalar, (math.inf, 1.0, 1.0)),
        (schalkwijk_kailath, (1.0, 1.0, math.nan, 4, RngStream(1))),
        (schalkwijk_kailath, (1.0, 1.0, math.inf, 4, RngStream(1))),
        (schalkwijk_kailath, (math.nan, 1.0, 1.0, 4, RngStream(1))),
        (schalkwijk_kailath, (1.0, math.inf, 1.0, 4, RngStream(1))),
    ],
)
def test_scalar_non_finite_parameters_are_domain_errors(make, args):
    with pytest.raises(DomainError):
        make(*args)


def test_feedback_design_values():
    d = design_feedback_scalar(0.5, 1.0, 1.0, 1.0)
    assert d.D_min == pytest.approx(4.0 / 7.0, abs=1e-12)
    assert d.capacity == pytest.approx(0.5, abs=1e-12)
    assert d.matched_rate == pytest.approx(0.5, abs=1e-12)
    # the matched rate is the nonanticipative RDF at D_min
    assert d.matched_rate == pytest.approx(
        rna_scalar_fully_observed(0.5, 1.0, d.D_min), abs=1e-12
    )
    assert d.encoder_gain**2 * d.input_var == pytest.approx(1.0, abs=1e-12)
    assert d.input_var == pytest.approx(0.25 * d.D_min + 1.0, abs=1e-12)


def test_nofeedback_design_values():
    d = design_nofeedback_scalar(0.5, 1.0, 1.0, 1.0)
    assert d.D_min == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert d.capacity == pytest.approx(0.5, abs=1e-12)
    assert d.matched_rate == pytest.approx(0.5, abs=1e-12)
    assert d.matched_rate == pytest.approx(
        0.5 * math.log2(d.source_var / d.D_min), abs=1e-12
    )
    assert d.encoder_gain**2 * d.input_var == pytest.approx(1.0, abs=1e-12)


def test_feedback_never_worse_than_nofeedback():
    rng = np.random.default_rng(23)
    for _ in range(100):
        a = rng.uniform(-0.95, 0.95)
        sw = rng.uniform(0.2, 2.0)
        sv = rng.uniform(0.2, 2.0)
        P = rng.uniform(0.05, 5.0)
        fb = design_feedback_scalar(a, sw, sv, P)
        nfb = design_nofeedback_scalar(a, sw, sv, P)
        assert fb.D_min <= nfb.D_min + 1e-15
        assert fb.capacity == pytest.approx(nfb.capacity, abs=1e-12)
    # equality holds exactly for a memoryless source
    fb = design_feedback_scalar(0.0, 1.0, 1.0, 2.0)
    nfb = design_nofeedback_scalar(0.0, 1.0, 1.0, 2.0)
    assert fb.D_min == pytest.approx(nfb.D_min, abs=1e-15)


def test_iid_design():
    d = design_iid_scalar(1.0, 1.0, 1.0)
    assert d.mode == "iid"
    assert d.alpha == 0.0
    assert d.D_min == pytest.approx(0.5, abs=1e-12)
    assert d.capacity == pytest.approx(0.5, abs=1e-12)
    assert d.matched_rate == pytest.approx(0.5, abs=1e-12)


def test_design_domain():
    with pytest.raises(DomainError):
        design_feedback_scalar(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        design_nofeedback_scalar(0.5, 0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        design_feedback_scalar(0.5, 1.0, 1.0, -1.0)
    # zero power is legal: nothing is sent, D_min is the source variance
    d = design_feedback_scalar(0.5, 1.0, 1.0, 0.0)
    assert d.D_min == pytest.approx(d.source_var, abs=1e-12)
    assert d.encoder_gain == 0.0 and d.capacity == 0.0


# ----------------------------------------------------------------- simulation


def test_simulate_feedback_hits_dmin():
    d = design_feedback_scalar(0.5, 1.0, 1.0, 1.0)
    rep = simulate_scalar(d, 1_000_000, RngStream(42))
    assert abs(rep.distortion - d.D_min) <= 4.0 * rep.distortion_se
    assert abs(rep.power - d.P) <= 4.0 * rep.power_se
    assert rep.samples >= 1_000_000
    # deterministic under the same stream
    rep2 = simulate_scalar(d, 1_000_000, RngStream(42))
    assert rep2.distortion == rep.distortion
    assert rep2.power == rep.power


def test_simulate_nofeedback_hits_dmin():
    d = design_nofeedback_scalar(0.5, 1.0, 1.0, 1.0)
    rep = simulate_scalar(d, 1_000_000, RngStream(43))
    assert abs(rep.distortion - d.D_min) <= 4.0 * rep.distortion_se
    assert abs(rep.power - d.P) <= 4.0 * rep.power_se


def test_simulate_iid_hits_dmin():
    d = design_iid_scalar(1.0, 1.0, 1.0)
    rep = simulate_scalar(d, 500_000, RngStream(44))
    assert abs(rep.distortion - 0.5) <= 4.0 * rep.distortion_se


def test_feedback_innovation_orthogonal_to_past_outputs():
    # the encoded innovation must be uncorrelated with previous channel
    # outputs; sample correlations stay within the CLT band
    d = design_feedback_scalar(0.7, 1.0, 1.0, 1.5)
    _, series = simulate_scalar(d, 40_000, RngStream(8), return_series=True)
    K, B = series["K"], series["B"]
    n = K.size
    for lag in (1, 2, 5):
        r = np.corrcoef(K[lag:], B[:-lag])[0, 1]
        assert abs(r) <= 4.0 / math.sqrt(n - lag)
    # the channel output sequence is white (its own innovations process)
    for lag in (1, 2, 5):
        r = np.corrcoef(B[lag:], B[:-lag])[0, 1]
        assert abs(r) <= 4.0 / math.sqrt(n - lag)
    # K is not white: its lag-1 correlation is alpha q/(P+q) exactly
    r1 = np.corrcoef(K[1:], K[:-1])[0, 1]
    q = d.sigma_Vc**2
    assert r1 == pytest.approx(d.alpha * q / (d.P + q), abs=4.0 / math.sqrt(n))


def test_simulate_vector_matches_realization():
    sol = solve_realization(TEST_MODEL, 1.2, Q=matched_channel_noise_safe())
    pm = match_power(sol)
    rep = simulate_vector(TEST_MODEL, sol, 100_000, RngStream(5))
    assert abs(rep.distortion - 1.2) <= max(4.0 * rep.distortion_se, 0.02)
    assert rep.per_coordinate_distortion == pytest.approx(sol.delta, rel=0.03)
    assert rep.per_channel_power == pytest.approx(pm.allocation, rel=0.03)
    assert abs(rep.power - pm.P) <= max(4.0 * rep.power_se, 0.03 * pm.P)
    # innovation covariance approaches Lambda_inf
    dev = np.abs(rep.cov_K - sol.Lambda_inf)
    assert np.all(dev <= 4.0 * rep.cov_K_se + 1e-12)


def matched_channel_noise_safe():
    sol = solve_realization(TEST_MODEL, 1.2)
    return matched_channel_noise(sol)


def test_simulate_vector_unstable_source_rejected():
    model = GaussModel(
        A=np.array([[1.05]]), B=np.array([[1.0]]), C=np.array([[1.0]]),
        N=np.array([[0.4]]),
    )
    sol = solve_realization(model, 0.5)
    with pytest.raises(NumericError):
        simulate_vector(model, sol, 1000, RngStream(1))


# ---------------------------------------------------------- Schalkwijk-Kailath


@pytest.mark.parametrize("args", [
    (1.0, 1.0, 1e308, 4),  # lambda_t underflows to 0 (a NaN per-use rate before)
    (1.0, 1e-170, 1.0, 3),  # sigma_Vc^2 underflows: contraction 0
    (1e200, 1.0, 1.0, 3),  # sigma_X^2 overflows: lambda_t = inf
])
def test_schalkwijk_kailath_mse_out_of_float_range_is_numeric_error(args):
    with pytest.raises(NumericError, match="float range"):
        schalkwijk_kailath(*args, RngStream(1), trials=10)


def test_schalkwijk_kailath_overflowing_rate_is_numeric_error():
    # P / sigma_Vc^2 overflows: capacity and per-use rate are both inf, and
    # their NaN difference must not pass as "equal"
    with pytest.raises(NumericError, match="per-use rate"):
        schalkwijk_kailath(1.0, 1e-150, 1e10, 1, RngStream(1), trials=10)


def test_min_steps_with_se_is_the_two_shard_threshold():
    for design in (design_feedback_scalar(0.5, 1.0, 1.0, 1.0),
                   design_nofeedback_scalar(0.99, 1.0, 1.0, 1.0),  # burn-in 995
                   design_iid_scalar(1.0, 1.0, 2.0)):
        need = min_steps_with_se(design)
        assert need >= 400
        assert math.isnan(simulate_scalar(design, need - 1, RngStream(2)).distortion_se)
        report = simulate_scalar(design, need, RngStream(2))
        assert math.isfinite(report.distortion_se) and math.isfinite(report.power_se)


def test_schalkwijk_kailath():
    res = schalkwijk_kailath(1.0, 1.0, 1.0, 6, RngStream(11), trials=100_000)
    assert res.capacity == pytest.approx(0.5, abs=1e-12)
    # MSE halves every channel use: lambda_t = 2^{-t}
    assert res.analytic_mse == pytest.approx(0.5 ** np.arange(7), abs=1e-12)
    assert res.analytic_mse[3] == pytest.approx(0.125, abs=1e-12)
    dev = np.abs(res.empirical_mse - res.analytic_mse)
    assert np.all(dev <= 4.0 * res.empirical_se)
    # reproducible
    res2 = schalkwijk_kailath(1.0, 1.0, 1.0, 6, RngStream(11), trials=100_000)
    assert np.array_equal(res2.empirical_mse, res.empirical_mse)
    with pytest.raises(DomainError):
        schalkwijk_kailath(1.0, 1.0, 0.0, 6, RngStream(1))
    with pytest.raises(DomainError):
        schalkwijk_kailath(1.0, 1.0, 1.0, 0, RngStream(1))
