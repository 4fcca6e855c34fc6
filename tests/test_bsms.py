import dataclasses
import math

import numpy as np
import pytest

from nardf.bsms import (
    classical_gray,
    directed_info_rate,
    gray_critical_distortion,
    joint_chain,
    max_rate_loss,
    optimal_reproduction,
    rate_loss_bound,
    rna_bsms,
)
from nardf.errors import DomainError, NumericError
from nardf.numerics import binary_entropy


def test_rna_values():
    # p = 0.5 is the IID uniform source: 1 - H(D)
    assert rna_bsms(0.5, 0.2) == pytest.approx(1.0 - binary_entropy(0.2), abs=1e-12)
    assert rna_bsms(0.5, 0.2) == pytest.approx(0.27807190511263774, abs=1e-10)
    assert rna_bsms(0.3, 0.5) == 0.0
    assert rna_bsms(0.25, 0.1) == pytest.approx(0.41229530564141137, abs=1e-10)
    # D = 0: lossless, rate is the source entropy rate H(p)
    assert rna_bsms(0.25, 0.0) == pytest.approx(binary_entropy(0.25), abs=1e-12)
    # beyond D_max = 1/2 the rate is zero
    assert rna_bsms(0.3, 0.51) == 0.0


def test_rna_domain():
    with pytest.raises(DomainError):
        rna_bsms(0.0, 0.1)
    with pytest.raises(DomainError):
        rna_bsms(1.0, 0.1)
    with pytest.raises(DomainError):
        rna_bsms(0.3, -0.01)


def test_rna_closed_form_structure():
    # H(m) - H(D) with m = 1 - p - D + 2 p D, clipped at zero
    for p in (0.1, 0.3, 0.5):
        for D in (0.05, 0.2, 0.4):
            m = 1.0 - p - D + 2.0 * p * D
            expect = max(binary_entropy(m) - binary_entropy(D), 0.0)
            assert rna_bsms(p, D) == pytest.approx(expect, abs=1e-14)


def test_optimal_reproduction_parameters():
    d = optimal_reproduction(0.25, 0.1)
    assert d.alpha == pytest.approx(0.9642857142857143, abs=1e-12)
    assert d.beta == pytest.approx(0.75, abs=1e-12)
    d = optimal_reproduction(0.5, 0.1)
    assert d.alpha == pytest.approx(0.9, abs=1e-12)
    assert d.beta == pytest.approx(0.9, abs=1e-12)
    d = optimal_reproduction(0.3, 0.1)
    assert d.alpha == pytest.approx(21.0 / 22.0, abs=1e-12)
    assert d.beta == pytest.approx(27.0 / 34.0, abs=1e-12)
    with pytest.raises(DomainError):
        optimal_reproduction(0.3, 0.0)
    with pytest.raises(DomainError):
        optimal_reproduction(0.3, 0.5)


def test_kernel_is_stochastic():
    d = optimal_reproduction(0.3, 0.2)
    k = d.kernel
    assert k.shape == (2, 2, 2)
    assert np.all(k >= 0.0) and np.all(k <= 1.0)
    assert np.allclose(k.sum(axis=0), 1.0, atol=1e-12)


def test_joint_chain_stationary_distortion():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = rng.uniform(0.02, 0.98)
        D = rng.uniform(0.01, 0.49)
        ch = joint_chain(optimal_reproduction(p, D))
        assert np.allclose(ch.pi_matrix.sum(axis=0), 1.0, atol=1e-12)
        assert ch.mean_distortion == pytest.approx(D, abs=1e-9)
        # stationary distribution is flip-symmetric
        assert ch.stationary[0] == pytest.approx(ch.stationary[3], abs=1e-12)
        assert ch.stationary[1] == pytest.approx(ch.stationary[2], abs=1e-12)
        # and is the eigenvector of Pi at eigenvalue 1, normalized
        w, V = np.linalg.eig(ch.pi_matrix)
        v = V[:, np.argmin(abs(w - 1.0))].real
        assert np.allclose(ch.stationary, v / v.sum(), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("p, D", [(1e-12, 0.1), (1e-20, 1e-12), (1e-20, 0.49),
                                  (1.0 - 1e-12, 0.3), (0.3, 1e-15)])
def test_joint_chain_law_is_closed_form_at_extreme_p_and_d(p, D):
    # a p near 0 leaves the chain nearly reducible, where a linear solve for
    # the stationary law fails or returns negative entries
    pi = joint_chain(optimal_reproduction(p, D)).stationary
    assert pi.tolist() == [0.5 * (1.0 - D), 0.5 * D, 0.5 * D, 0.5 * (1.0 - D)]
    assert np.all(pi >= 0.0) and pi[0] == pi[3] and pi[1] == pi[2]


def test_joint_chain_rejects_a_kernel_that_does_not_keep_the_law():
    design = optimal_reproduction(0.3, 0.1)
    a, b = design.alpha, design.beta
    swapped = np.empty((2, 2, 2))  # the kernel with alpha and beta swapped
    swapped[0] = [[b, 1.0 - a], [a, 1.0 - b]]
    swapped[1] = 1.0 - swapped[0]
    for bad in (dataclasses.replace(design, kernel=swapped),
                dataclasses.replace(design, p=1.0 - design.p)):
        with pytest.raises(NumericError, match="not stationary"):
            joint_chain(bad)


def test_directed_info_equals_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(60):
        p = rng.uniform(0.02, 0.5)
        D = rng.uniform(0.01, 0.49)
        d = optimal_reproduction(p, D)
        ch = joint_chain(d)
        assert directed_info_rate(ch, d) == pytest.approx(rna_bsms(p, D), abs=1e-9)


def test_reproduction_process_is_bsms_p():
    # the optimal reproduction has the same law as the source: its
    # transition kernel, marginalized over the joint chain, flips w.p. p
    for p, D in ((0.3, 0.1), (0.25, 0.2), (0.45, 0.05)):
        ch = joint_chain(optimal_reproduction(p, D))
        T = np.zeros((2, 2))
        for j in range(4):
            for i in range(4):
                T[i % 2, j % 2] += ch.pi_matrix[i, j] * ch.stationary[j]
        T /= T.sum(axis=0, keepdims=True)
        assert T[1, 0] == pytest.approx(p, abs=1e-10)
        assert T[0, 1] == pytest.approx(p, abs=1e-10)


def test_tilted_form():
    from nardf.bsms import verify_tilted_form

    for p, D in ((0.3, 0.1), (0.25, 0.2), (0.45, 0.05), (0.5, 0.3)):
        s, dev = verify_tilted_form(optimal_reproduction(p, D))
        assert s == pytest.approx(math.log(D / (1.0 - D)), abs=1e-12)
        assert s < 0.0
        assert type(dev) is float and dev < 1e-10
    # a D that disagrees with the kernel gives no consistent s
    design = optimal_reproduction(0.3, 0.1)
    with pytest.raises(NumericError):
        verify_tilted_form(dataclasses.replace(design, D=1.01 * design.D))


@pytest.mark.parametrize("p, D, error", [
    (0.3, 0.1, None), (0.5, 0.49, None), (0.3, 0.5, DomainError),
    (1e-11, 6e-10, NumericError), (1e-12, 1e-12, NumericError),
    (0.3, 1e-9, NumericError), (1e-9, 0.1, NumericError)])
def test_tilted_form_at_the_edges_raises_library_errors(p, D, error):
    # s comes from D in closed form: the log of the cancelled ratio
    # (1 - alpha)/alpha * (1 - p)/p leaked a math domain error at
    # (1e-11, 6e-10) and (1e-12, 1e-12).  Where the kernel's stored
    # 1 - alpha has lost its relative precision the check still raises
    # NumericError; a closed-form complement would let those pairs pass
    from nardf.bsms import verify_tilted_form

    if error is None:
        verify_tilted_form(optimal_reproduction(p, D))
    else:
        with pytest.raises(error):
            verify_tilted_form(optimal_reproduction(p, D))


def test_classical_gray():
    rate, exact = classical_gray(0.25, 0.02)
    assert exact is True
    assert rate == pytest.approx(binary_entropy(0.25) - binary_entropy(0.02), abs=1e-12)
    rate, exact = classical_gray(0.25, 0.1)
    assert exact is False  # beyond the critical distortion
    assert gray_critical_distortion(0.25) == pytest.approx(0.02859547920896832, abs=1e-10)
    assert gray_critical_distortion(0.1) == pytest.approx(0.003096005000046753, abs=1e-10)
    # p = 1/2: IID source, bound exact on the whole curve
    assert gray_critical_distortion(0.5) == pytest.approx(0.5, abs=1e-12)
    rate, exact = classical_gray(0.5, 0.3)
    assert exact is True
    with pytest.raises(DomainError):
        classical_gray(0.7, 0.1)


def test_rna_dominates_gray():
    rng = np.random.default_rng(2)
    for _ in range(200):
        p = rng.uniform(0.02, 0.5)
        D = rng.uniform(0.001, 0.49)
        gray, exact = classical_gray(p, D)
        r = rna_bsms(p, D)
        assert r >= gray - 1e-12
        if exact:
            # where the classical bound is tight, the gap is the true rate loss
            assert r - gray <= rate_loss_bound(p, D) + 1e-12


def test_rate_loss_bound_values():
    # D <= p branch: H(m) - H(p)
    m = 1.0 - 0.25 - 0.1 + 2 * 0.25 * 0.1
    assert rate_loss_bound(0.25, 0.1) == pytest.approx(
        binary_entropy(m) - binary_entropy(0.25), abs=1e-12
    )
    # at p = 1/2 the bound collapses to zero on D <= p (m = 1/2)
    assert rate_loss_bound(0.5, 0.3) == 0.0
    # D > p branch: H(m) - H(D) = rna itself
    assert rate_loss_bound(0.1, 0.3) == pytest.approx(rna_bsms(0.1, 0.3), abs=1e-12)
    with pytest.raises(DomainError):
        rate_loss_bound(0.6, 0.1)


def test_rate_loss_bounds_the_true_gap():
    # on the exactness region the bound really bounds rna - classical
    rng = np.random.default_rng(9)
    for _ in range(200):
        p = rng.uniform(0.05, 0.5)
        D = rng.uniform(1e-4, 1.0) * gray_critical_distortion(p)
        if D <= 0.0:
            continue
        gap = rna_bsms(p, D) - classical_gray(p, D)[0]
        assert gap <= rate_loss_bound(p, D) + 1e-12


def _rate_loss_grid(points):
    # rate_loss_bound over a (p, D) grid on [0, 1/2]^2, as arrays
    g = np.linspace(0.0, 0.5, points)
    P, D = np.meshgrid(g, g, indexing="ij")
    hm = binary_entropy(1.0 - P - D + 2.0 * P * D)
    return g, np.where(D <= P, hm - binary_entropy(P), hm - binary_entropy(D))


def test_rate_loss_grid_formula_is_rate_loss_bound():
    g, val = _rate_loss_grid(11)
    for i, j in [(0, 0), (2, 1), (1, 2), (3, 3), (10, 4), (4, 10), (10, 10)]:
        assert val[i, j] == pytest.approx(rate_loss_bound(g[i], g[j]), abs=1e-15)


def test_max_rate_loss_matches_brute_force_grid():
    p, D, val = max_rate_loss()
    g, grid = _rate_loss_grid(1501)  # step 1/3000, the crease on the grid
    i, j = np.unravel_index(int(np.argmax(grid)), grid.shape)
    assert float(grid.max()) <= val + 1e-12
    assert val - float(grid.max()) <= 1e-6
    assert abs(g[i] - p) <= 1.5 / 3000 and abs(g[j] - D) <= 1.5 / 3000
    assert (p, D, val) == pytest.approx((0.1210913, 0.1210913, 0.2144176144), abs=1e-7)


def test_rate_loss_rises_toward_the_crease():
    # m = 1 - p - D + 2pD >= 1/2 falls as p rises on p <= D and as D rises
    # on D <= p, so H(m) rises: the maximum lies on the crease D = p
    g, val = _rate_loss_grid(301)
    P, D = np.meshgrid(g, g, indexing="ij")
    up_in_p = np.diff(val, axis=0)[(P[1:] <= D[1:])]
    up_in_D = np.diff(val, axis=1)[(D[:, 1:] <= P[:, 1:])]
    assert up_in_p.min() >= -1e-15 and up_in_D.min() >= -1e-15
    # RL(p, p) is concave on [0, 1/4], where max_rate_loss maximizes it
    crease = np.diagonal(val)[g <= 0.25]
    assert np.diff(crease, 2).max() <= 1e-15


def test_max_rate_loss():
    p, D, val = max_rate_loss()
    # pinned bit for bit: the golden section on floats keeps the array run's iterates
    assert (p, D, val) == (0.12109133307249685, 0.12109133307249685, 0.21441761436357254)
    assert val == pytest.approx(0.2144176, abs=2e-6)
    assert p == pytest.approx(0.1211, abs=2e-4)
    assert D == pytest.approx(p, abs=2e-4)  # the maximum sits on the crease D = p
    # it is an upper bound for the bound itself on a random cloud
    rng = np.random.default_rng(4)
    pp = rng.uniform(0.0, 0.5, 400)
    DD = rng.uniform(0.0, 0.5, 400)
    assert all(rate_loss_bound(a, b) <= val + 1e-9 for a, b in zip(pp, DD))
