import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nardf.errors import DomainError, NumericError
from nardf.gauss import reverse_waterfill
from nardf.jscc import capacity_waterfill
from nardf.numerics import (
    BITS_PER_NAT,
    RngStream,
    binary_entropy,
    bisect_monotone,
    cubic_positive_root,
    logsumexp,
    maximize_concave_1d,
    perron_eigenvalue,
    solve_discrete_lyapunov,
    sym_eig,
    water_level,
)


def test_binary_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.1) == pytest.approx(0.46899559358928817, abs=1e-12)
    # symmetry
    for q in (0.03, 0.2, 0.41):
        assert binary_entropy(q) == pytest.approx(binary_entropy(1 - q), abs=1e-15)


def test_binary_entropy_vectorized_and_domain():
    q = np.array([0.0, 0.25, 0.5, 1.0])
    h = binary_entropy(q)
    assert h.shape == q.shape
    assert h[2] == 1.0
    assert isinstance(binary_entropy(0.3), float)
    with pytest.raises(DomainError):
        binary_entropy(-1e-9)
    with pytest.raises(DomainError):
        binary_entropy(np.array([0.2, 1.1]))


def test_sym_eig_ordering_and_reconstruction():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 5):
        for _ in range(20):
            X = rng.standard_normal((n, n))
            M = X + X.T
            w, E = sym_eig(M)
            assert np.all(np.diff(w) <= 1e-12)  # descending
            # rows of E are eigenvectors: M = E^t diag(w) E
            rec = E.T @ (w[:, None] * E)
            assert np.max(np.abs(rec - M)) < 1e-10 * max(1.0, np.abs(M).max())
            assert np.max(np.abs(E @ E.T - np.eye(n))) < 1e-10


def test_sym_eig_rejects_asymmetry():
    with pytest.raises(DomainError):
        sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_sym_eig_sign_convention_deterministic():
    M = np.diag([3.0, 1.0])
    w, E = sym_eig(M)
    assert np.allclose(w, [3.0, 1.0])
    # first nonzero component of each eigenvector is positive
    assert E[0, 0] > 0 and E[1, 1] > 0


def test_bisect_monotone():
    root = bisect_monotone(lambda x: x * x - 2.0, 0.0, 2.0, tol=1e-12)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-10)
    # decreasing function
    root = bisect_monotone(lambda x: 1.0 - x, -3.0, 5.0, tol=1e-12)
    assert root == pytest.approx(1.0, abs=1e-10)
    # endpoint root is returned
    assert bisect_monotone(lambda x: x, 0.0, 1.0, tol=1e-12) == 0.0
    with pytest.raises(DomainError):
        bisect_monotone(lambda x: x + 10.0, 0.0, 1.0, tol=1e-12)


def test_cubic_positive_root():
    # (x-1)(x+2)(x+3) = x^3 + 4x^2 + x - 6
    assert cubic_positive_root(1.0, 4.0, 1.0, -6.0) == pytest.approx(1.0, abs=1e-12)
    # largest real root is returned: (x-2)(x-1)(x+1) = x^3 - 2x^2 - x + 2
    assert cubic_positive_root(1.0, -2.0, -1.0, 2.0) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(DomainError):
        cubic_positive_root(0.0, 1.0, 1.0, 1.0)


def test_cubic_random_reconstruction():
    rng = np.random.default_rng(3)
    for _ in range(100):
        roots = np.sort(rng.uniform(-3.0, 3.0, size=3))
        c2 = -roots.sum()
        c1 = roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2]
        c0 = -roots.prod()
        got = cubic_positive_root(1.0, c2, c1, c0)
        assert got == pytest.approx(roots[-1], abs=1e-8)


def test_perron_eigenvalue():
    assert perron_eigenvalue(np.array([[0.0, 2.0], [2.0, 0.0]])) == pytest.approx(2.0, abs=1e-10)
    assert perron_eigenvalue(np.ones((2, 2))) == pytest.approx(2.0, abs=1e-10)
    # any irreducible column-stochastic matrix has Perron eigenvalue 1
    P = np.array([[0.9, 0.3], [0.1, 0.7]])
    assert perron_eigenvalue(P) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(DomainError):
        perron_eigenvalue(np.array([[1.0, 0.0], [0.0, 2.0]]))  # reducible


def test_perron_matches_numpy_on_random_positive():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = rng.integers(2, 6)
        M = rng.uniform(0.01, 1.0, size=(n, n))
        lam = perron_eigenvalue(M)
        ref = np.max(np.real(np.linalg.eigvals(M)))
        assert lam == pytest.approx(ref, rel=1e-9)


def test_maximize_concave_1d():
    x, v = maximize_concave_1d(lambda t: -(t - 0.3) ** 2, -1.0, 1.0)
    assert x == pytest.approx(0.3, abs=1e-7)
    assert v == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DomainError):
        maximize_concave_1d(lambda t: t, 1.0, 0.0)


def test_bits_per_nat():
    assert BITS_PER_NAT == pytest.approx(1.4426950408889634, abs=1e-15)


def test_rng_stream_reproducible_and_disjoint():
    a = RngStream(123)
    x1 = a.generator().standard_normal(8)
    x2 = RngStream(123).generator().standard_normal(8)
    assert np.array_equal(x1, x2)
    # shards differ from the root and from each other
    s0 = a.shard(0).generator().standard_normal(8)
    s1 = a.shard(1).generator().standard_normal(8)
    assert not np.array_equal(s0, s1)
    assert not np.array_equal(x1, s0)
    # nested sharding stays reproducible
    assert np.array_equal(
        a.shard(3).shard(2).generator().standard_normal(4),
        RngStream(123).shard(3).shard(2).generator().standard_normal(4),
    )


# ---------------------------------------------------------------- water level


def _bisected_level(values, total, steps=100):
    # reference: bisection on the nondecreasing sum_i min(L, v_i), as both
    # water-fillings located their level before the exact routine
    v = np.asarray(values, dtype=float)
    lo, hi = min(total / v.size, float(v.min())), float(v.max())
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if float(np.minimum(mid, v).sum()) < total:
            lo = mid
        else:
            hi = mid
    return hi


def _bisected_reverse_waterfill(lam, D):
    lam = np.asarray(lam, dtype=float)
    hi = _bisected_level(lam, D)
    active = lam > hi
    n_active = int(active.sum())
    xi = (D - float(lam[~active].sum())) / n_active if n_active else hi
    return xi, np.minimum(xi, lam)


def _bisected_capacity_waterfill(q, P):
    q = np.asarray(q, dtype=float)
    hi = -_bisected_level(-q, -(P + float(q.sum())))
    active = q < hi
    nu = (P + float(q[active].sum())) / int(active.sum())
    return np.maximum(0.0, nu - q)


# ties and zeros come from the sampled values.  Spectra stay above 1e-3: on
# subnormal ones the 1e-12 * total allocation check underflows, and the
# bisected and exact water-fillings both raise NumericError.
_spectra = st.lists(
    st.one_of(st.sampled_from([0.0, 0.25, 1.0, 3.0]), st.floats(1e-3, 10.0)),
    min_size=1,
    max_size=8,
)
_noise = st.lists(
    st.one_of(st.sampled_from([0.25, 1.0, 3.0]), st.floats(0.01, 10.0)),
    min_size=1,
    max_size=8,
)


def test_water_level_examples():
    assert water_level([4.0, 1.0], 2.0) == 1.0
    assert water_level([4.0, 1.0], 0.5) == 0.25
    assert water_level([4.0, 1.0], 5.0) == 4.0  # total = sum: max(v)
    assert water_level([4.0, 1.0], 5.5) == 4.5  # last piece extended
    assert water_level([-1.0, -2.0], -5.0) == -2.5  # every value active


@settings(max_examples=200, deadline=None, derandomize=True)
@given(values=_spectra, frac=st.floats(0.001, 1.0))
def test_water_level_matches_bisection(values, frac):
    v = np.array(values)
    total = frac * float(v.sum())
    assume(total > 0.0)
    level = water_level(v, total)
    assert level == pytest.approx(_bisected_level(v, total), rel=1e-12, abs=1e-12)
    assert float(np.minimum(level, v).sum()) == pytest.approx(total, rel=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(values=_spectra, frac=st.floats(0.001, 1.0))
def test_reverse_waterfill_matches_bisection(values, frac):
    lam = np.array(values)
    D = frac * float(lam.sum())
    assume(D > 0.0)
    w = reverse_waterfill(lam, D)
    xi, delta = _bisected_reverse_waterfill(lam, D)
    tol = 1e-12 * float(lam.sum())
    assert w.xi == pytest.approx(xi, abs=tol)
    assert np.allclose(w.delta, delta, rtol=0.0, atol=tol)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(noise=_noise, P=st.floats(1e-3, 50.0))
def test_capacity_waterfill_matches_bisection(noise, P):
    q = np.array(noise)
    _, alloc = capacity_waterfill(q, P)
    if q.size > 1:
        ref = _bisected_capacity_waterfill(q, P)
        assert np.allclose(alloc, ref, rtol=0.0, atol=1e-12 * (P + float(q.sum())))
    assert float(alloc.sum()) == pytest.approx(P, rel=1e-12)


# ---------------------------------------------------------------- Lyapunov


@pytest.mark.parametrize("rho", [0.5, 0.999])
@pytest.mark.parametrize("m", [1, 2, 5, 12])
def test_lyapunov_matches_scipy(m, rho):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(100 * m + int(1000 * rho))
    A = rng.normal(size=(m, m))
    A *= rho / float(np.max(np.abs(np.linalg.eigvals(A))))
    B = rng.normal(size=(m, m))
    Q = B @ B.T
    X = solve_discrete_lyapunov(A, Q)
    ref = scipy_linalg.solve_discrete_lyapunov(A, Q)
    scale = float(np.max(np.abs(ref)))
    assert np.array_equal(X, X.T)
    assert float(np.max(np.abs(X - ref))) <= 1e-9 * scale
    assert float(np.max(np.abs(A @ X @ A.T + Q - X))) <= 1e-10 * scale


@pytest.mark.parametrize("A", [np.eye(2), np.array([[1.5, 0.0], [1.0, 0.2]])])
def test_lyapunov_unstable_raises(A):
    with pytest.raises(NumericError):
        solve_discrete_lyapunov(A, np.eye(2))


# ---------------------------------------------------------------- logsumexp


def test_logsumexp_large_and_neg_inf_entries():
    assert logsumexp([1000.0, 1000.0]) == pytest.approx(1000.0 + math.log(2.0), abs=1e-12)
    assert logsumexp([-1000.0, -1000.0]) == pytest.approx(-1000.0 + math.log(2.0), abs=1e-12)
    assert logsumexp([-math.inf, 0.0]) == 0.0
    assert logsumexp([-math.inf, -math.inf]) == -math.inf
    a = np.array([[0.1, 2.0, -math.inf], [710.0, 709.0, 3.0]])
    out = logsumexp(a, axis=1)
    assert out.shape == (2,)
    assert out[0] == pytest.approx(math.log(math.exp(0.1) + math.exp(2.0)), abs=1e-12)
    assert out[1] == pytest.approx(710.0 + math.log1p(math.exp(-1.0)), abs=1e-12)
