import math

import numpy as np
import pytest

from nardf.errors import DomainError, NumericError
from nardf.gauss import (
    GaussModel,
    classical_alpha1,
    partially_observed_sigma,
    rate_loss_alpha1,
    reverse_waterfill,
    rna_scalar_fully_observed,
    rna_scalar_partially_observed,
    solve_realization,
)


def _random_model(rng, m, p, radius=0.85):
    A = rng.normal(size=(m, m))
    A *= radius / max(np.abs(np.linalg.eigvals(A)))
    B = rng.normal(size=(m, m)) * 0.8 + np.eye(m)
    C = rng.normal(size=(p, m))
    N = np.diag(rng.uniform(0.2, 0.8, p))
    return GaussModel(A=A, B=B, C=C, N=N)


TEST_MODEL = GaussModel(
    A=np.array([[0.6, 0.2], [0.0, 0.5]]),
    B=np.eye(2),
    C=np.array([[1.0, 0.0], [0.3, 0.9]]),
    N=0.4 * np.eye(2),
)


# ---------------------------------------------------------------- water-fill


def test_waterfill_examples():
    w = reverse_waterfill([4.0, 1.0], 2.0)
    assert w.xi == pytest.approx(1.0, abs=1e-12)
    assert w.delta == pytest.approx([1.0, 1.0], abs=1e-12)
    assert w.rate == pytest.approx(1.0, abs=1e-12)
    w = reverse_waterfill([4.0, 1.0], 0.5)
    assert w.xi == pytest.approx(0.25, abs=1e-12)
    assert w.rate == pytest.approx(3.0, abs=1e-12)
    w = reverse_waterfill([4.0, 1.0], 4.0)
    assert w.xi == pytest.approx(3.0, abs=1e-12)
    assert w.delta == pytest.approx([3.0, 1.0], abs=1e-12)
    assert w.rate == pytest.approx(0.5 * math.log2(4.0 / 3.0), abs=1e-12)


def test_waterfill_saturation_and_domain():
    w = reverse_waterfill([4.0, 1.0], 5.0)  # exactly the total variance
    assert w.rate == 0.0 and not w.saturated
    w = reverse_waterfill([4.0, 1.0], 6.0)
    assert w.rate == 0.0 and w.saturated
    assert w.delta == pytest.approx([4.0, 1.0], abs=1e-15)
    with pytest.raises(DomainError):
        reverse_waterfill([4.0, 1.0], 0.0)
    with pytest.raises(DomainError):
        reverse_waterfill([4.0, -1.0], 1.0)


@pytest.mark.parametrize(
    "solve",
    [
        lambda D: reverse_waterfill([4.0, 1.0], D),
        lambda D: solve_realization(TEST_MODEL, D),
        lambda D: solve_realization(GaussModel.scalar(0.5, 1.0, 1.0, 0.5), D),
    ],
    ids=["waterfill", "vector", "scalar"],
)
def test_nan_distortion_is_domain_error(solve):
    with pytest.raises(DomainError):
        solve(math.nan)


def test_waterfill_kkt_against_grid_oracle():
    rng = np.random.default_rng(21)
    for _ in range(40):
        lam = rng.uniform(0.05, 5.0, rng.integers(1, 7))
        D = rng.uniform(0.01, 0.99) * float(lam.sum())
        w = reverse_waterfill(lam, D)
        assert float(w.delta.sum()) == pytest.approx(D, abs=1e-10)
        # KKT structure: any coordinate below its ceiling sits at the level xi
        inactive = w.delta < lam - 1e-12
        assert np.allclose(w.delta[inactive], w.xi, atol=1e-10)
        # brute-force oracle: grid the water level, then refine once
        lo, hi = 0.0, float(lam.max())
        for _ in range(2):
            grid = np.linspace(lo, hi, 20001)
            sums = np.minimum(grid[:, None], lam[None, :]).sum(axis=1)
            xi0 = float(grid[int(np.argmin(np.abs(sums - D)))])
            step = (hi - lo) / 20000.0
            lo, hi = max(xi0 - step, 0.0), xi0 + step
        d0 = np.minimum(xi0, lam)
        mask = d0 > 0
        rate0 = float(0.5 * np.sum(np.log2(lam[mask] / d0[mask])))
        assert w.rate == pytest.approx(rate0, abs=1e-5)
        # optimality among random feasible allocations at the same budget
        for _ in range(20):
            d = rng.dirichlet(np.ones(lam.size)) * D
            if np.any(d > lam):
                continue
            assert w.rate <= float(0.5 * np.sum(np.log2(lam / d))) + 1e-9


# ------------------------------------------------------------ scalar closed forms


def test_scalar_fully_observed():
    assert rna_scalar_fully_observed(0.5, 1.0, 0.5) == pytest.approx(0.5850, abs=1e-4)
    assert rna_scalar_fully_observed(0.5, 1.0, 0.5) == pytest.approx(
        0.5849625007211562, abs=1e-12
    )
    # alpha = 0 is the IID Gaussian source
    assert rna_scalar_fully_observed(0.0, 2.0, 1.0) == pytest.approx(
        0.5 * math.log2(4.0), abs=1e-12
    )
    # at D equal to the stationary variance the log argument is exactly 1
    assert rna_scalar_fully_observed(0.9, 1.0, 1.0 / (1.0 - 0.81)) == pytest.approx(
        0.0, abs=1e-12
    )
    with pytest.raises(DomainError):
        rna_scalar_fully_observed(0.5, 1.0, 0.0)
    with pytest.raises(DomainError):
        rna_scalar_fully_observed(1.2, 1.0, 0.5)


@pytest.mark.parametrize(
    "args",
    [(math.nan, 1.0, 0.5), (0.5, math.nan, 0.5), (0.5, math.inf, 0.5),
     (0.5, 1.0, math.nan), (0.5, 1.0, math.inf)],
)
def test_scalar_fully_observed_non_finite_is_domain_error(args):
    with pytest.raises(DomainError):
        rna_scalar_fully_observed(*args)


def test_solver_matches_fully_observed_closed_form():
    for alpha in (0.0, 0.3, 0.7, 0.95):
        for sw in (0.5, 1.0, 2.0):
            var = sw * sw / (1.0 - alpha * alpha)
            for u in (0.05, 0.4, 0.9):
                D = u * var
                sol = solve_realization(GaussModel.scalar(alpha, sw), D)
                assert sol.Sigma_inf[0, 0] == pytest.approx(
                    alpha * alpha * D + sw * sw, abs=1e-8
                )
                assert sol.rate == pytest.approx(
                    rna_scalar_fully_observed(alpha, sw, D), abs=1e-8
                )


def test_fully_observed_anchor_sigma():
    sol = solve_realization(GaussModel.scalar(0.5, 1.0), 0.5)
    assert sol.Sigma_inf[0, 0] == pytest.approx(1.125, abs=1e-9)
    assert sol.rate == pytest.approx(0.5849625007211562, abs=1e-9)
    assert not sol.saturated
    assert sol.filter_stable


def test_partially_observed_cubic_anchors():
    # frozen fixed-point oracle value
    assert partially_observed_sigma(0.5, 1.0, 1.0, 1.0, 0.5) == pytest.approx(
        1.1712312995613716, abs=1e-10
    )
    assert rna_scalar_partially_observed(0.5, 1.0, 1.0, 1.0, 0.5) == pytest.approx(
        1.059256711653498, abs=1e-10
    )
    # alpha = 0: the cubic factors as (S - sW^2)(S + sV^2/c^2)^2
    assert partially_observed_sigma(0.0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(
        1.0, abs=1e-12
    )
    assert rna_scalar_partially_observed(0.0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(
        0.5, abs=1e-12
    )
    # sigma_V = 0 collapses to the fully observed closed form
    for alpha, sw, D in ((0.5, 1.0, 0.4), (0.8, 0.7, 0.2)):
        assert partially_observed_sigma(alpha, 1.0, sw, 0.0, D) == pytest.approx(
            alpha * alpha * D + sw * sw, abs=1e-10
        )
        assert rna_scalar_partially_observed(alpha, 1.0, sw, 0.0, D) == pytest.approx(
            rna_scalar_fully_observed(alpha, sw, D), abs=1e-10
        )
    with pytest.raises(DomainError):
        rna_scalar_partially_observed(1.0, 1.0, 1.0, 1.0, 0.5)


def test_partially_observed_agrees_with_fixed_point():
    # closed-form cubic vs the general solver on a 1x1 model
    direct = rna_scalar_partially_observed(0.5, 1.0, 1.0, 0.5, 0.4)
    sol = solve_realization(GaussModel.scalar(0.5, 1.0, 1.0, 0.5), 0.4)
    assert direct == pytest.approx(sol.rate, abs=1e-8)
    # random sweep: cubic root vs Picard fixed point
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.uniform(-0.95, 0.95)
        c = rng.uniform(0.3, 2.0)
        sw = rng.uniform(0.3, 2.0)
        sv = rng.uniform(0.05, 1.5)
        var_x = c * c * sw * sw / (1.0 - a * a) + sv * sv
        D = rng.uniform(0.02, 0.95) * var_x
        sol = solve_realization(GaussModel.scalar(a, sw, c, sv), D)
        assert partially_observed_sigma(a, c, sw, sv, D) == pytest.approx(
            sol.Sigma_inf[0, 0], abs=1e-8
        )
        assert rna_scalar_partially_observed(a, c, sw, sv, D) == pytest.approx(
            sol.rate, abs=1e-8
        )


def test_sigma_v_continuity():
    for alpha, sw, D in ((0.5, 1.0, 0.4), (0.9, 1.0, 1.0), (0.2, 0.5, 0.1)):
        po = rna_scalar_partially_observed(alpha, 1.0, sw, 1e-6, D)
        fo = rna_scalar_fully_observed(alpha, sw, D)
        assert abs(po - fo) <= 1e-3


# ----------------------------------------------------------------- vector solver


def test_vector_anchor():
    sol = solve_realization(TEST_MODEL, 1.2)
    assert sol.rate == pytest.approx(1.0556672772317302, abs=1e-9)
    assert sol.spectrum == pytest.approx([1.70433334, 0.91268937], abs=1e-7)
    assert sol.delta == pytest.approx([0.6, 0.6], abs=1e-9)
    assert sol.eta == pytest.approx([0.64795619, 0.34260218], abs=1e-7)
    assert sol.xi == pytest.approx(0.6, abs=1e-9)
    assert sol.residual < 1e-9
    assert sol.filter_stable and not sol.saturated


def test_rate_invariant_to_channel_noise_diagonal():
    rng = np.random.default_rng(3)
    for m, p in ((2, 2), (3, 2), (3, 3)):
        model = _random_model(rng, m, p)
        D = 0.3 * float(np.trace(model.C @ model.C.T))
        base = solve_realization(model, D)
        for _ in range(3):
            q = rng.uniform(0.1, 10.0, p)
            alt = solve_realization(model, D, Q=q)
            assert abs(alt.rate - base.rate) <= 1e-9
            assert np.max(np.abs(alt.Sigma_inf - base.Sigma_inf)) <= 1e-9
            # the noise scale shows up only in the decoder coefficients
            assert alt.b_inf == pytest.approx(base.b_inf * np.sqrt(1.0 / q), rel=1e-8)


def test_channel_noise_validation():
    with pytest.raises(DomainError):
        solve_realization(TEST_MODEL, 1.0, Q=[1.0, -1.0])
    with pytest.raises(DomainError):
        solve_realization(TEST_MODEL, 1.0, Q=np.array([[1.0, 0.5], [0.5, 1.0]]))


def test_rate_curve_monotone_and_midpoint_convex():
    rng = np.random.default_rng(17)
    models = [TEST_MODEL, _random_model(rng, 3, 2)]
    for model in models:
        total = float(
            np.trace(model.C @ model.C.T) + np.trace(model.N @ model.N.T)
        )
        grid = np.linspace(0.05, 1.2, 9) * total
        rates = [solve_realization(model, d).rate for d in grid]
        for r0, r1 in zip(rates, rates[1:]):
            assert r1 <= r0 + 1e-9
        for i in range(len(grid) - 2):
            mid = solve_realization(model, 0.5 * (grid[i] + grid[i + 2])).rate
            assert mid <= 0.5 * (rates[i] + rates[i + 2]) + 1e-9


def test_lambda_identity_and_psd():
    rng = np.random.default_rng(29)
    for m, p in ((1, 1), (2, 2), (3, 2)):
        model = _random_model(rng, m, p)
        D = 0.4 * float(np.trace(model.C @ model.C.T))
        sol = solve_realization(model, D)
        C, N = model.C, model.N
        target = C @ sol.Sigma_inf @ C.T + N @ N.T
        assert float(np.max(np.abs(sol.Lambda_inf - target))) <= 1e-9
        assert float(np.min(np.linalg.eigvalsh(sol.Lambda_inf))) >= -1e-12
        # spectrum/E_inf really diagonalize Lambda_inf
        recon = sol.E_inf.T @ np.diag(sol.spectrum) @ sol.E_inf
        assert np.allclose(recon, sol.Lambda_inf, atol=1e-9)


def test_saturated_solve():
    total = float(
        np.trace(TEST_MODEL.C @ TEST_MODEL.C.T) + np.trace(TEST_MODEL.N @ TEST_MODEL.N.T)
    )
    sol = solve_realization(TEST_MODEL, 4.0 * total)
    assert sol.rate == 0.0
    assert sol.saturated


def test_divergence_guard():
    # unstable and unobservable: the error covariance blows up
    bad = GaussModel(
        A=np.array([[1.2]]), B=np.array([[1.0]]), C=np.array([[0.0]]), N=np.empty((1, 0))
    )
    with pytest.raises(NumericError):
        solve_realization(bad, 0.5)


def test_model_validation():
    with pytest.raises(DomainError):
        GaussModel(
            A=np.eye(2), B=np.eye(2), C=np.eye(3), N=np.empty((3, 0))
        )  # C columns mismatch A
    with pytest.raises(DomainError):
        GaussModel(
            A=np.array([[np.nan]]),
            B=np.array([[1.0]]),
            C=np.array([[1.0]]),
            N=np.empty((1, 0)),
        )
    m = GaussModel.scalar(0.5, 1.0, 2.0, 0.3)
    assert m.dims == (1, 1, 1, 1)
    assert m.C[0, 0] == 2.0 and m.N[0, 0] == 0.3
    assert GaussModel.scalar(0.5, 1.0).dims == (1, 1, 1, 0)
    with pytest.raises(DomainError):
        solve_realization(TEST_MODEL, 0.0)


# ------------------------------------------------------------------ alpha = 1


def test_classical_alpha1():
    assert classical_alpha1(1.0, 0.25) == pytest.approx(1.0, abs=1e-12)
    assert classical_alpha1(2.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError):
        classical_alpha1(1.0, 0.3)
    with pytest.raises(DomainError):
        classical_alpha1(1.0, 0.0)


def test_rate_loss_alpha1():
    assert rate_loss_alpha1(1.0, 0.25) == pytest.approx(
        0.5 * math.log2(1.25), abs=1e-12
    )
    assert rate_loss_alpha1(1.0, 0.25) == pytest.approx(0.1610, abs=1e-4)
    assert rate_loss_alpha1(1.0, 1e-12) == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(DomainError):
        rate_loss_alpha1(1.0, 0.26)
    # identity: rna at alpha = 1 equals classical + rate loss
    rng = np.random.default_rng(31)
    for _ in range(50):
        sw = rng.uniform(0.3, 3.0)
        D = rng.uniform(1e-3, 1.0) * sw * sw / 4.0
        lhs = rna_scalar_fully_observed(1.0, sw, D)
        assert lhs == pytest.approx(
            classical_alpha1(sw, D) + rate_loss_alpha1(sw, D), abs=1e-12
        )
