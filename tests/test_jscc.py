import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from nardf import excess, jscc, numerics
from nardf.errors import DomainError, NumericError
from nardf.gauss import GaussModel, rna_scalar_fully_observed, solve_realization
from nardf.jscc import (
    MIN_STEPS_WITH_SE,
    capacity_waterfill,
    design_feedback_scalar,
    design_iid_scalar,
    design_nofeedback_scalar,
    match_power,
    matched_channel_noise,
    schalkwijk_kailath,
    simulate_scalar,
    simulate_vector,
)
from nardf.numerics import RngStream

from conftest import step_matrix

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
    # scaling the noise scales the power, capacity pinned to the rate
    pm2 = match_power(solve_realization(TEST_MODEL, 1.2, Q=2.0 * q))
    assert pm2.matched
    assert pm2.P == pytest.approx(2.0 * pm.P, rel=1e-9)


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
        (schalkwijk_kailath, (1.0, 1.0, 1.0, 4, RngStream(1), 1)),  # one trial: no SE
        # finite inputs whose squares, ratios or products leave the float range
        (design_feedback_scalar, (0.5, 1e-170, 1.0, 1.0)),  # sigma_W^2 underflows
        (design_nofeedback_scalar, (0.5, 1.0, 1e160, 1.0)),  # sigma_Vc^2 overflows
        (design_iid_scalar, (1.0, 1e-160, 1.0)),  # P / sigma_Vc^2 overflows
        (design_nofeedback_scalar, (0.5, 1.0, 1.0, 1e-320)),  # infinite decoder gain
        (design_nofeedback_scalar, (0.99999999, 1e100, 1e100, 1e-320)),  # zero divisor
        (design_iid_scalar, (1e100, 1e100, 1e308)),  # D_min overflows: log2(0)
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


def _source_encoder_decoder_loop(design, n, rng):
    # oracle: the source X and the decoder's predictor Xhat run explicitly on
    # the draws of a one-shard simulate_scalar, from X_0 = K_0 and Xhat_0 = 0;
    # returns the encoder inputs K, the channel outputs B, and the sums of
    # the squared reproduction error X - Y and of the channel input power
    normals = numerics._lockstep_draws(rng, 1, n, np.random.Generator.standard_normal,
                                       rows=(2,), first=())
    X = float(next(normals)[0]) * math.sqrt(design.input_var)
    Xhat, d_sum, p_sum = 0.0, 0.0, 0.0
    K, B = np.empty(n), np.empty(n)
    feedback = design.mode == "feedback"
    for t, (W, Vc) in enumerate(normals):
        K[t] = X - Xhat if feedback else X
        A_t = design.encoder_gain * K[t]
        B[t] = A_t + design.sigma_Vc * float(Vc[0])
        Y = design.decoder_gain * B[t] + (Xhat if feedback else 0.0)
        d_sum += (X - Y) ** 2
        p_sum += A_t**2
        Xhat = design.alpha * Y if feedback else 0.0
        X = design.alpha * X + design.sigma_W * float(W[0])
    return K, B, d_sum, p_sum


def test_feedback_innovation_orthogonal_to_past_outputs():
    # the encoded innovation must be uncorrelated with previous channel
    # outputs; sample correlations stay within the CLT band
    d = design_feedback_scalar(0.7, 1.0, 1.0, 1.5)
    K, B, _, _ = _source_encoder_decoder_loop(d, 40_000, RngStream(8))
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


UNSTABLE_SOURCE = GaussModel(
    A=np.array([[1.05]]), B=np.array([[1.0]]), C=np.array([[1.0]]), N=np.array([[0.4]]),
)


@pytest.mark.parametrize("model, D", [
    (UNSTABLE_SOURCE, 0.5),  # rho(A) = 1.05, closed-loop radius 0.36
    (GaussModel.scalar(1.0, 1.0), 0.2),  # the unit-root source
], ids=["rho-1.05", "unit-root"])
def test_simulate_vector_unstable_source_with_a_stable_loop(model, D):
    sol = solve_realization(model, D)
    assert sol.closed_loop_radius < 1.0
    rep = simulate_vector(model, sol, 100_000, RngStream(1))
    assert abs(rep.distortion - D) <= 4.0 * rep.distortion_se


@pytest.mark.parametrize("s", [1e-6, 1e6])
def test_simulate_vector_is_invariant_under_covariance_scaling(s):
    # (A, sB, C, sN) at s^2 D: the same seed gives s^2 times the distortion,
    # through the relative rules of the fixed point and the PSD start root
    unit = simulate_vector(TEST_MODEL, solve_realization(TEST_MODEL, 1.2), 4000, RngStream(8))
    scaled = GaussModel(A=TEST_MODEL.A, B=s * TEST_MODEL.B, C=TEST_MODEL.C, N=s * TEST_MODEL.N)
    sol = solve_realization(scaled, 1.2 * s * s)
    rep = simulate_vector(scaled, sol, 4000, RngStream(8))
    assert rep.distortion / (s * s) == pytest.approx(unit.distortion, rel=1e-9)


def test_saturation_rule_has_no_absolute_slack():
    # lambda_1 = 1.025e-20 exceeds D = 1e-21 tenfold; a rule with an
    # absolute 1e-15 slack would call this saturated, with a nonzero rate
    sol = solve_realization(GaussModel.scalar(0.5, 1e-10, 1.0, 0.0), 1e-21)
    assert not sol.saturated
    assert sol.rate == pytest.approx(0.5 * math.log2(0.25 + 10.0), rel=1e-12)


def test_simulate_vector_unstable_closed_loop_rejected():
    sol = solve_realization(UNSTABLE_SOURCE, 0.5)
    with pytest.raises(NumericError, match="unstable"):
        simulate_vector(UNSTABLE_SOURCE, replace(sol, gain=0.0 * sol.gain), 1000, RngStream(1))


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


@pytest.mark.parametrize("make", [design_feedback_scalar, design_nofeedback_scalar])
def test_simulated_sums_out_of_float_range_are_numeric_errors(make):
    design = make(0.5, 1e153, 1.0, 1.0)  # a valid design whose squared errors overflow
    for n in (MIN_STEPS_WITH_SE - 1, 500):  # one shard, whose means are checked too; two
        with pytest.raises(NumericError, match="float range"):
            simulate_scalar(design, n, RngStream(1))


def test_scalar_designs_at_extreme_parameters_are_finite_or_raise():
    # every pairing of extreme magnitudes: a design with finite fields and
    # positive variances, or DomainError / NumericError, never another error
    values = (1e-320, 1e-200, 1e-100, 1.0, 1e100, 1e200, 1e308)
    made = 0
    for alpha, sw, sv, P in itertools.product((0.0, 0.5, -0.9, 0.99999999), values, values,
                                              (0.0,) + values):
        for make in (design_feedback_scalar, design_nofeedback_scalar):
            try:
                d = make(alpha, sw, sv, P)
            except (DomainError, NumericError):
                continue
            made += 1
            fields = (d.D_min, d.capacity, d.matched_rate, d.encoder_gain, d.decoder_gain,
                      d.source_var, d.input_var)
            assert all(math.isfinite(v) for v in fields)
            assert min(d.D_min, d.source_var, d.input_var) > 0.0
    assert made > 100


def test_min_steps_with_se_is_the_two_shard_threshold():
    assert MIN_STEPS_WITH_SE == 400
    for design in (design_feedback_scalar(0.5, 1.0, 1.0, 1.0),
                   design_nofeedback_scalar(0.99, 1.0, 1.0, 1.0),
                   design_iid_scalar(1.0, 1.0, 2.0)):
        # one shard: finite means, NaN standard errors, and no NumericError
        report = simulate_scalar(design, MIN_STEPS_WITH_SE - 1, RngStream(2))
        assert math.isfinite(report.distortion) and math.isfinite(report.power)
        assert math.isnan(report.distortion_se) and math.isnan(report.power_se)
        report = simulate_scalar(design, MIN_STEPS_WITH_SE, RngStream(2))
        assert math.isfinite(report.distortion_se) and math.isfinite(report.power_se)


def test_near_unit_root_source_simulates_from_its_stationary_law():
    # the chain forgets its start at rate 0.999 per step, slower than any
    # 200-step shard; a stationary start leaves each shard unbiased anyway
    design = design_nofeedback_scalar(0.999, 1.0, 1.0, 1.0)
    rep = simulate_scalar(design, 200_000, RngStream(3))
    assert abs(rep.distortion - design.D_min) <= 4.0 * rep.distortion_se
    assert abs(rep.power - design.P) <= 4.0 * rep.power_se
    rep = simulate_scalar(design_nofeedback_scalar(0.99999999, 1.0, 1.0, 1.0),
                          MIN_STEPS_WITH_SE, RngStream(2))
    assert all(math.isfinite(v) for v in (rep.distortion, rep.distortion_se,
                                          rep.power, rep.power_se))


@pytest.mark.parametrize("design", [design_feedback_scalar(0.7, 1.1, 0.9, 1.5),
                                    design_nofeedback_scalar(-0.6, 1.2, 0.8, 1.5)],
                         ids=["fb", "nfb"])
def test_scalar_recursion_is_the_source_encoder_decoder_loop(design):
    # the library's one recursion on K, one shard below MIN_STEPS_WITH_SE,
    # sums what the explicit loop on the same draws sums
    for n in (1, 2, 300, MIN_STEPS_WITH_SE - 1):
        report = simulate_scalar(design, n, RngStream(4))
        _, _, d_sum, p_sum = _source_encoder_decoder_loop(design, n, RngStream(4))
        assert report.samples == n
        assert report.distortion == pytest.approx(d_sum / n, rel=1e-12, abs=0.0)
        assert report.power == pytest.approx(p_sum / n, rel=1e-12, abs=0.0)


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


def test_min_steps_with_se_is_the_two_shard_threshold_for_vector_runs():
    sol = solve_realization(TEST_MODEL, 1.2)
    report = simulate_vector(TEST_MODEL, sol, MIN_STEPS_WITH_SE - 1, RngStream(2))
    for name in ("distortion", "power", "per_coordinate_distortion", "per_channel_power",
                 "cov_K"):
        assert np.all(np.isfinite(getattr(report, name)))
        assert np.all(np.isnan(getattr(report, name + "_se")))
    report = simulate_vector(TEST_MODEL, sol, MIN_STEPS_WITH_SE, RngStream(2))
    assert np.all(np.isfinite(report.per_coordinate_distortion_se))
    assert np.all(np.isfinite(report.cov_K_se))


# ------------------------------------------------------- lockstep block layout
#
# The references below run each numerics._trial_blocks block on its own, step
# by step, with one draw call per step; the simulators draw chunks of steps
# for all blocks together.  Shards of the same block must see the same draws.


def _channel_gain(sol):
    # a_inf = sqrt(q eta / delta), 0 on coordinates with delta = 0
    delta = sol.delta
    return np.sqrt(np.where(delta > 0.0, sol.q * sol.eta / np.where(delta > 0.0, delta, 1.0), 0.0))


def _psd_root(cov):
    # the root the library starts from: eigenvalues cut at 0
    w, V = numerics.sym_eig(cov)
    return V.T * np.sqrt(np.maximum(w, 0.0))


def _blockwise(step, cov, to_channel, n, rng):
    # the report's statistics from the recursion (step, cov) stepped one
    # block at a time.  The lockstep loop multiplies by all shards at once;
    # a one-shard block of more shards is stepped as column 0 of a
    # two-column copy, so that numpy takes the same matrix-matrix product,
    # not its matrix-vector one
    shards, per_shard = jscc._shard_layout(n)
    m, p = cov.shape[0], to_channel.shape[0]
    root = _psd_root(cov)
    d_sums, covs = [], []
    for g, size in numerics._trial_blocks(rng, shards):
        x = np.zeros((step.shape[1], 2 if size == 1 < shards else size))
        x[:m, :size] = g.standard_normal((m, size))
        x[:m] = root @ x[:m]
        d_sum = np.zeros((p, size))
        covK = np.zeros((p, p, size))
        for _ in range(per_shard):
            x[m:, :size] = g.standard_normal((step.shape[1] - m, size))
            y = step @ x
            err, K = y[m:m + p, :size], y[m + p:, :size]
            d_sum += err * err
            covK += K[:, None] * K
            x[:m] = y[:m]
        d_sums.append(d_sum)
        covs.append(covK)
    d_sum, covK = np.concatenate(d_sums, axis=-1), np.concatenate(covs, axis=-1)
    power = np.einsum("ij,jks,ik->is", to_channel, covK, to_channel)
    sums = {"distortion": d_sum.sum(axis=0), "power": power.sum(axis=0),
            "per_coordinate_distortion": d_sum, "per_channel_power": power, "cov_K": covK}
    stats = {}
    for name, total in sums.items():
        stats[name], stats[name + "_se"] = jscc._mean_and_se(np.moveaxis(total / per_shard, -1, 0))
    return shards * per_shard, stats


def _matches_blocks(report, step, cov, to_channel, n, seed):
    samples, stats = _blockwise(step, cov, to_channel, n, RngStream(seed))
    assert report.samples == samples
    for name, value in stats.items():
        assert np.array_equal(getattr(report, name), value, equal_nan=True), name


def _realization_steps(model, sol, n, trials, rng):
    # oracle: the explicit loop source -> innovation -> decorrelate (E_inf)
    # -> a_inf -> AWGN -> b_inf -> rotate back -> predictor, on the draws of
    # the library's error recursion, from Z_0 = e_0 and zhat_0 = 0; yields
    # (reproduction error, channel input) per step in the decorrelated basis
    A, B, C, N = model.A, model.B, model.C, model.N
    m, k, p, d = model.dims
    rec = excess.gaussian_error_recursion(model, sol)
    E, q, a_inf = sol.E_inf, sol.q, _channel_gain(sol)
    normals = numerics._lockstep_draws(rng, trials, n, np.random.Generator.standard_normal,
                                       rows=(k + d + p,), first=(m,))
    Z = _psd_root(rec.cov) @ next(normals)
    zhat = np.zeros((m, trials))
    for z in normals:
        W, V, Vc = z[:k], z[k:k + d], np.sqrt(q)[:, None] * z[k + d:]
        X = C @ Z + (N @ V if d else 0.0)
        Gam = E @ (X - C @ zhat)
        ch_in = a_inf[:, None] * Gam
        Gam_til = sol.b_inf[:, None] * (ch_in + Vc)
        yield Gam_til - Gam, ch_in
        zhat = A @ zhat + sol.gain @ (E.T @ Gam_til)
        Z = A @ Z + B @ W


@pytest.mark.parametrize("model, D, Q", [
    (TEST_MODEL, 1.2, None),
    (TEST_MODEL, 1.2, np.array([0.5, 2.0])),  # q != 1: sqrt(q) enters the step
    (GaussModel(A=TEST_MODEL.A, B=np.eye(2), C=np.array([[1.0, 0.5]]), N=np.empty((1, 0))),
     0.3, None),
    (GaussModel.scalar(0.5, 1.0, 1.0, 0.5), 0.5, None),
    (UNSTABLE_SOURCE, 0.5, None),
    (GaussModel.scalar(1.0, 1.0), 0.2, None),
], ids=["2x2", "2x2-channel-noise", "p<m-noiseless", "scalar-observed", "unstable-source",
        "unit-root"])
def test_error_recursion_is_the_realization_pathwise(model, D, Q):
    sol = solve_realization(model, D, Q)
    rec = excess.gaussian_error_recursion(model, sol)
    a_inf = _channel_gain(sol)
    steps, power = 0, 0.0
    for (K, err), (ref_err, ref_in) in zip(
            excess._error_steps(rec, 100, 5, RngStream(6)),
            _realization_steps(model, sol, 100, 5, RngStream(6))):
        np.testing.assert_allclose(err, ref_err, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(a_inf[:, None] * (sol.E_inf @ K), ref_in, rtol=0.0, atol=1e-12)
        power += ref_in[:, 0] ** 2
        steps += 1
    assert steps == 100
    # a one-shard run draws what trial 0 of the five drew
    report = simulate_vector(model, sol, 100, RngStream(6))
    np.testing.assert_allclose(report.per_channel_power * 100, power, rtol=1e-12, atol=0.0)


def _scalar_loop(design, n, trials, rng):
    # oracle: the design's loop as an explicit recursion on the encoder
    # input K, on the draws of the library's one-state recursion; yields
    # (reproduction error, channel input) per step
    normals = numerics._lockstep_draws(rng, trials, n, np.random.Generator.standard_normal,
                                       rows=(2,), first=(1,))
    K = next(normals)[0] * math.sqrt(design.input_var)
    enc, dec, feedback = design.encoder_gain, design.decoder_gain, design.mode == "feedback"
    for W, z in normals:
        A_t = enc * K
        err = K - dec * (A_t + design.sigma_Vc * z)
        yield err, A_t
        K = design.alpha * (err if feedback else K) + design.sigma_W * W


@pytest.mark.parametrize("design", [design_feedback_scalar(0.7, 1.1, 0.9, 1.5),
                                    design_nofeedback_scalar(-0.6, 1.2, 0.8, 1.5),
                                    design_iid_scalar(1.3, 0.7, 2.0),
                                    design_nofeedback_scalar(0.99999999, 1.0, 1.0, 1.0)],
                         ids=["fb", "nfb", "iid", "nfb-unit-root"])
def test_scalar_recursion_is_the_explicit_loop_pathwise(design):
    rec = jscc._scalar_recursion(design)
    a, drive = rec.step[0, 0], rec.step[0, 1:]
    v = float(rec.cov[0, 0])
    assert v == design.input_var
    assert abs(a * a * v + drive @ drive - v) <= 1e-12 * v  # stationary: v = a^2 v + |drive|^2
    # 1e-12 in units of each value's standard deviation: at alpha = 0.99999999
    # K and err reach 10^4, where one ulp is 1.8e-12
    err_tol, in_tol = 1e-12 * math.sqrt(v), 1e-12 * math.sqrt(design.P)
    steps, power = 0, 0.0
    for (K, err), (ref_err, ref_in) in zip(excess._error_steps(rec, 100, 5, RngStream(6)),
                                           _scalar_loop(design, 100, 5, RngStream(6))):
        np.testing.assert_allclose(err[0], ref_err, rtol=0.0, atol=err_tol)
        np.testing.assert_allclose(design.encoder_gain * K[0], ref_in, rtol=0.0, atol=in_tol)
        power += ref_in[0] ** 2
        steps += 1
    assert steps == 100
    report = simulate_scalar(design, 100, RngStream(6))
    np.testing.assert_allclose(report.per_channel_power * 100, [power], rtol=1e-12, atol=0.0)


def _blockwise_sk(sigma_X, sigma_Vc, P, n, rng, trials):
    q = sigma_Vc * sigma_Vc
    lam = sigma_X * sigma_X * (q / (P + q)) ** np.arange(n + 1)
    errors = []  # (n + 1, size) per block
    for g, size in numerics._trial_blocks(rng, trials):
        X = g.standard_normal(size) * sigma_X
        Xhat = np.zeros(size)
        rows = [X - Xhat]
        for t in range(n):
            B_t = math.sqrt(P / lam[t]) * (X - Xhat) + g.standard_normal(size) * sigma_Vc
            Xhat = Xhat + math.sqrt(P * lam[t]) / (P + q) * B_t
            rows.append(X - Xhat)
        errors.append(np.array(rows))
    err2 = np.concatenate(errors, axis=1) ** 2
    emp = np.array([float(np.mean(row)) for row in err2])
    se = np.array([float(np.std(row, ddof=1) / math.sqrt(trials)) for row in err2])
    return emp, se


def _scalar_matches_blocks(design, n, seed):
    rec = jscc._scalar_recursion(design)
    _matches_blocks(simulate_scalar(design, n, RngStream(seed)), rec.step, rec.cov,
                    np.array([[design.encoder_gain]]), n, seed)


LOCKSTEP_DESIGNS = {
    "fb": design_feedback_scalar(0.5, 1.2, 0.8, 1.5),
    "nfb": design_nofeedback_scalar(-0.6, 1.2, 0.8, 1.5),
}


@pytest.mark.parametrize("shards", [1, 15, 16, 17, 64, 1000])
@pytest.mark.parametrize("mode", ["fb", "nfb"])
def test_lockstep_scalar_matches_block_loop(mode, shards):
    design = LOCKSTEP_DESIGNS[mode]
    n = shards * 200
    assert jscc._shard_layout(n) == (shards, 200)
    _scalar_matches_blocks(design, n, 31)


def test_lockstep_scalar_short_last_chunk(monkeypatch):
    # 400 shards draw 163-step chunks; 200 steps end in a 37-step chunk
    assert jscc._shard_layout(80_000) == (400, 200)
    assert numerics._CHUNK_BYTES // (8 * 400 * 2) == 163
    _scalar_matches_blocks(LOCKSTEP_DESIGNS["fb"], 80_000, 32)
    monkeypatch.setattr(numerics, "_CHUNK_BYTES", 3 * 8 * 2 * 17)  # 3-step chunks
    assert jscc._shard_layout(17 * 202) == (17, 202)
    for design in LOCKSTEP_DESIGNS.values():
        _scalar_matches_blocks(design, 17 * 202, 33)  # 202 steps: a one-step last chunk


def _vector_matches_blocks(n, shards, seed):
    sol = solve_realization(TEST_MODEL, 1.2)
    assert jscc._shard_layout(n)[0] == shards
    report = simulate_vector(TEST_MODEL, sol, n, RngStream(seed))
    _matches_blocks(report, step_matrix(TEST_MODEL, sol),
                    excess.gaussian_error_recursion(TEST_MODEL, sol).cov,
                    np.diag(_channel_gain(sol)) @ sol.E_inf, n, seed)


@pytest.mark.parametrize("shards", [1, 15, 16, 17, 64, 1000])
def test_lockstep_vector_matches_block_loop(shards):
    _vector_matches_blocks(shards * 200, shards, 34)


def test_lockstep_vector_short_last_chunk(monkeypatch):
    monkeypatch.setattr(numerics, "_CHUNK_BYTES", 3 * 8 * 6 * 17)  # 3-step chunks
    _vector_matches_blocks(17 * 202, 17, 35)  # 202 steps: a one-step last chunk


def _sk_matches_blocks(P, n, seed, trials):
    res = schalkwijk_kailath(1.3, 0.9, P, n, RngStream(seed), trials=trials)
    emp, se = _blockwise_sk(1.3, 0.9, P, n, RngStream(seed), trials)
    assert res.empirical_mse.tobytes() == emp.tobytes()
    assert res.empirical_se.tobytes() == se.tobytes()


@pytest.mark.parametrize("trials", [2, 15, 16, 17, 64])
def test_lockstep_sk_matches_block_loop(trials):
    _sk_matches_blocks(1.1, 7, 36, trials)


def test_lockstep_sk_short_last_chunk(monkeypatch):
    assert numerics._CHUNK_BYTES // (8 * 2000) == 65
    _sk_matches_blocks(0.05, 100, 37, 2000)  # 65-step chunks, then a 35-step one
    monkeypatch.setattr(numerics, "_CHUNK_BYTES", 3 * 8 * 17)  # 3-step chunks
    _sk_matches_blocks(1.1, 7, 38, 17)


@pytest.mark.parametrize("width,blocks", [(5, 5), (16, 16), (1000, 16)])
def test_lockstep_keeps_one_generator_per_block(monkeypatch, width, blocks):
    made = []
    original = RngStream.generator

    def counting(self):
        made.append(self.stream_id)
        return original(self)

    monkeypatch.setattr(RngStream, "generator", counting)
    expect = [RngStream(39).shard(i).stream_id for i in range(blocks)]
    sol = solve_realization(TEST_MODEL, 1.2)
    for run in (lambda: simulate_scalar(LOCKSTEP_DESIGNS["fb"], 200 * width, RngStream(39)),
                lambda: simulate_vector(TEST_MODEL, sol, 200 * width, RngStream(39)),
                lambda: schalkwijk_kailath(1.0, 1.0, 1.0, 3, RngStream(39), trials=width)):
        made.clear()
        run()
        assert made == expect


# --------------------------------------------------------------- bounded memory


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scalar_memory_does_not_grow_with_steps():
    design = design_feedback_scalar(0.5, 1.0, 1.0, 1.0)
    small, large = (_traced_peak(lambda: simulate_scalar(design, n, RngStream(40)))
                    for n in (200_000, 8_000_000))
    assert abs(large - small) < 2**20


def test_sk_memory_does_not_grow_with_uses():
    # P = 0.01: the analytic MSE stays in range over 4000 uses.  All uses'
    # noise at once would take 8 n trials bytes, 62 MiB more at n = 4000.
    small, large = (
        _traced_peak(lambda: schalkwijk_kailath(1.0, 1.0, 0.01, n, RngStream(41), trials=2000))
        for n in (100, 4000))
    assert abs(large - small) < 2**20
