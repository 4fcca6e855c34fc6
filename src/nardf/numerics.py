"""Numerical kernel: entropy, deterministic eigensolves, the exact water
level, the discrete Lyapunov equation, log-sum-exp, the cubic root, the
Perron root of one matrix, 1-d concave maximization (one float golden
section per problem: every theta of a rate-function curve runs its own),
RNG streams, and the one block layout through which every Monte Carlo
simulator draws (_lockstep_draws).

The entropy core runs on Python floats through `math` alone: _entropy2
takes q together with its complement 1 - q and logs the smaller side, and
_entropy_gap takes a difference H(a + d) - H(a) from d itself, so neither
loses relative precision near 0, near 1 or to cancellation.

All rates in this package are in bits (base-2 logs).  Large-deviations
exponents are natural-log objects; BITS_PER_NAT converts for display.
Every public function here is pure.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DomainError, NumericError

__all__ = ["BITS_PER_NAT", "RngStream", "binary_entropy", "cubic_positive_root",
           "maximize_concave_1d", "perron_eigenvalue", "sym_eig"]

LN2 = math.log(2.0)
BITS_PER_NAT = 1.0 / LN2

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# the gufuncs behind np.linalg.eigh and np.linalg.eigvals, without the
# wrapper, whose checks cost more than a 2x2 to 4x4 solve.  A failed solve
# sets the invalid flag and returns NaNs; the callers raise NumericError
_eigh_lo = _umath_linalg.eigh_lo
_eigvals = _umath_linalg.eigvals


def _entropy2(q, r):
    # H(q) in bits from q and r = 1 - q, both at full relative precision:
    # log of the smaller side, log1p of its negation for the larger side's
    # log, 0 at either end.  Both terms have one sign, so nothing cancels.
    # math.log2, not math.log: the latter parses an optional base and costs
    # three times as much
    if q > r:
        q, r = r, q
    if q == 0.0:
        return 0.0
    return -(q * math.log2(q) + r * math.log1p(-q) / LN2)


def _entropy_gap(a, d, w):
    # H(a + d) - H(a) in bits for a, d >= 0 with u = a + d <= 1/2, from d
    # and w = 1 - 2u at full relative precision (the caller's closed forms;
    # only the atanh form reads w).  Where d >= a, H(a) <= H(u/2) <= 0.82 H(u)
    # and the two entropies are subtracted.  Below that, in nats, with
    # b = 1 - a and v = 1 - u,
    #   H(u) - H(a) = d log(v/u) - a log1p(d/a) - b log1p(-d/b),
    # whose last two terms cancel to ~eps d, below eps/log(v/u) of the
    # result for u <= 1/4.  Above 1/4, with w_a = 1 - 2a,
    #   H(u) - H(a) = d log(b/a) + w atanh(2d/(1 - w w_a))
    #                 + log1p(-2d (w_a + w)/(1 - w^2))/2,
    # whose one negative term is below 0.6 of the other two
    u = a + d
    if d >= a:
        return _entropy2(u, 1.0 - u) - _entropy2(a, 1.0 - a)
    b = 1.0 - a
    if u <= 0.25:
        nats = (d * (math.log1p(-u) - LN2 * math.log2(u))
                - a * math.log1p(d / a) - b * math.log1p(-d / b))
    else:
        wa = 1.0 - 2.0 * a
        nats = (d * math.log1p(wa / a) + w * math.atanh(2.0 * d / (1.0 - w * wa))
                + 0.5 * math.log1p(-2.0 * d * (wa + w) / (1.0 - w * w)))
    return nats / LN2


def binary_entropy(q):
    """Binary entropy H(q) in bits, elementwise, with 0*log2(0) = 0.

    Every argument goes through one float core, which takes q with its
    complement 1 - q (exact for q >= 1/2) and logs the smaller side with
    log and log1p, so H keeps its full relative precision near 0 and near 1.
    A 0-d argument (Python or NumPy scalar, 0-d array) returns a float; an
    array maps the core over its elements, so both paths give the same bits."""
    if isinstance(q, (float, int)) or getattr(q, "ndim", None) == 0:
        x = float(q)
        if not 0.0 <= x <= 1.0:
            raise DomainError("binary_entropy: argument must lie in [0, 1]")
        return _entropy2(x, 1.0 - x)
    arr = np.asarray(q, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):  # NaN fails too
        raise DomainError("binary_entropy: argument must lie in [0, 1]")
    out = np.array([_entropy2(x, 1.0 - x) for x in arr.ravel().tolist()]).reshape(arr.shape)
    return out if out.ndim else float(out)


def sym_eig(M):
    """Deterministic eigendecomposition of a symmetric matrix.

    Returns (spectrum, E) with the spectrum descending and

        M = E.T @ diag(spectrum) @ E,   E @ E.T = I.

    Rows of E are the eigenvectors.  Sign convention: the first component
    of each eigenvector exceeding 1e-12 of the row's max magnitude is made
    positive, so repeated calls (and platforms) agree.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.size == 0:
        raise DomainError("sym_eig: nonempty square matrix required")
    if not np.all(np.isfinite(M)):
        raise DomainError("sym_eig: non-finite entries")
    if M.shape[0] == 1:
        return _eigh_desc(M)
    if float(np.max(np.abs(M - M.T))) > 1e-12 * float(np.max(np.abs(M))):
        raise DomainError("sym_eig: matrix is not symmetric")
    with np.errstate(invalid="ignore"):
        w, E = _eigh_desc(0.5 * (M + M.T))
    return w, _sign_rows(E)


def _eigh_desc(M):
    # sym_eig of a finite, exactly symmetric M, unchecked and without the
    # sign convention: eigh's spectrum in stable descending order (ties keep
    # eigh's order), each row of E an eigenvector up to its sign.  Call it
    # under np.errstate(invalid="ignore"): the NaNs of a failed solve (in w
    # and V alike) raise NumericError here, not a warning
    if M.shape[0] == 1:
        return M[0].copy(), np.ones((1, 1))
    w, V = _eigh_lo(M)
    spectrum = w.tolist()
    if not all(map(math.isfinite, spectrum)):
        raise NumericError("sym_eig: eigensolve failed (non-finite eigensystem)")
    if all(x < y for x, y in zip(spectrum, spectrum[1:])):
        # no ties: the stable argsort's order, as contiguous copies
        return w[::-1].copy(), V.T[::-1].copy()
    order = (-w).argsort(kind="stable")
    return w[order], V.T[order]


def _spectral_radius(M):
    # max |eigenvalue| of a finite square M, as np.abs of np.linalg.eigvals
    # gives it: a real spectrum comes back with zero imaginary parts, and
    # |x + 0j| = |x| exactly
    with np.errstate(invalid="ignore"):
        radius = float(abs(_eigvals(M)).max())
    if not math.isfinite(radius):
        raise NumericError("spectral radius: eigensolve failed (non-finite eigenvalues)")
    return radius


def _sign_rows(E):
    # sym_eig's sign convention on the rows of E, in place, by a Python scan
    signs = []
    for row in E.tolist():
        cut = 1e-12 * max(map(abs, row))
        lead = next((x for x in row if abs(x) > cut), 0.0)
        signs.append(-1.0 if lead < 0.0 else 1.0)
    if -1.0 in signs:
        E *= np.array(signs)[:, None]
    return E


def _sum(values):
    # float64 sum of a list as numpy takes it: from 0.0 left to right below
    # 8 terms, pairwise from 8 on
    if len(values) >= 8:
        return float(np.sum(values))
    total = 0.0
    for x in values:
        total += x
    return total


def water_level(values, total):
    """Exact level L with sum_i min(L, v_i) = total, in O(p log p).

    The sum is piecewise linear in L with breakpoints at the sorted values.
    A total at or above sum(v) lands on the last piece, extended past
    max(v), so a saturated total that differs from sum(v) only by summation
    order still gives max(v) to rounding.  Reverse water-filling is
    (lambda, D); capacity water-filling is (-q, -(P + sum q)), level -nu.
    """
    return _level(np.sort(np.asarray(values, dtype=float).reshape(-1)).tolist(), total)


def _level(v, total):
    # water_level of an ascending list of floats, rounded as the array form
    # rounds it: below_j = v_0 + ... + v_(j-1) summed in turn (cumsum), the
    # piece ends below_j + (p - j) v_j, and bisect_left's search for the
    # first end that is not < total, which searchsorted finds too (a NaN end
    # is not < total; a NaN total gives a NaN level at any index)
    p = len(v)
    below, ends = [], []
    run = 0.0
    for j, x in enumerate(v):
        below.append(run)
        ends.append(run + (p - j) * x)
        run += x
    j = min(bisect.bisect_left(ends, total), p - 1)
    return (total - below[j]) / (p - j)


def solve_discrete_lyapunov(A, Q):
    """X = A X A' + Q for a stable A (spectral radius < 1) by Smith doubling,
    X <- X + A_k X A_k' and A_k <- A_k^2, in O(m^2) memory.  The tail left
    after A_k is below ||A_k||_F^2 ||X||, so the loop stops once ||A_k||_F^2
    <= eps; NumericError if 64 doublings (2^64 terms) do not get there."""
    Ak = np.asarray(A, dtype=float)
    X = np.asarray(Q, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(64):
            X = X + Ak @ X @ Ak.T
            Ak = Ak @ Ak
            if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Ak))):
                break
            if float(np.sum(Ak * Ak)) <= np.finfo(float).eps:
                return 0.5 * (X + X.T)
    raise NumericError("solve_discrete_lyapunov: doubling did not converge "
                       "(A unstable or X overflows)")


def logsumexp(a, axis=None):
    """log(sum(exp(a))) along `axis` without overflow; -inf entries add 0."""
    a = np.asarray(a, dtype=float)
    shift = np.max(a, axis=axis, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    total = np.sum(np.exp(a - shift), axis=axis)
    with np.errstate(divide="ignore"):
        return np.log(total) + np.squeeze(shift, axis=axis)


def _cubic_eval(c3, c2, c1, c0, x):
    return ((c3 * x + c2) * x + c1) * x + c0


def cubic_positive_root(c3, c2, c1, c0):
    """Largest real root of c3 x^3 + c2 x^2 + c1 x + c0 (c3 != 0): the
    largest real eigenvalue of the companion matrix, Newton-polished, with
    |f(x)| <= 1e-12 sum_i |c_i| |x|^i, the scale at which f(x) rounds, so
    the bound holds for roots of any size.  A failed eigensolve (a companion
    row that overflows) or a larger residual is a NumericError.
    """
    if not all(math.isfinite(c) for c in (c3, c2, c1, c0)):
        raise DomainError("cubic_positive_root: coefficients must be finite")
    if c3 == 0.0:
        raise DomainError("cubic_positive_root: leading coefficient is zero")
    companion = np.array([[-c2 / c3, -c1 / c3, -c0 / c3], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        roots = _eigvals(companion).tolist()
    if not all(math.isfinite(z.real) and math.isfinite(z.imag) for z in roots):
        raise NumericError("cubic_positive_root: eigensolve failed (companion matrix overflows)")
    # LAPACK gives a real 3 x 3 matrix's real eigenvalue an imaginary part of exactly 0
    x = max(z.real for z in roots if abs(z.imag) <= 1e-8 * (1.0 + abs(z.real)))
    # companion-matrix roots can carry O(1e-12) error; polish but never accept
    # a Newton step that increases the residual
    for _ in range(4):
        fx = _cubic_eval(c3, c2, c1, c0, x)
        fpx = (3.0 * c3 * x + 2.0 * c2) * x + c1
        if fpx == 0.0:
            break
        cand = x - fx / fpx
        if abs(_cubic_eval(c3, c2, c1, c0, cand)) < abs(fx):
            x = cand
        else:
            break
    scale = _cubic_eval(abs(c3), abs(c2), abs(c1), abs(c0), abs(x))
    if abs(_cubic_eval(c3, c2, c1, c0, x)) > 1e-12 * scale:
        raise NumericError("cubic_positive_root: residual exceeds tolerance")
    return x


def _reachable_everywhere(mask):
    # reachability closure of an (n, n) boolean matrix by repeated
    # squaring; matrices here are tiny
    n = mask.shape[0]
    reach = mask | np.eye(n, dtype=bool)
    for _ in range(max(1, int(math.ceil(math.log2(max(n, 2)))))):
        reach = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
    return bool(reach.all())


def perron_eigenvalue(M):
    """Spectral radius of an irreducible nonnegative matrix: the largest real
    part of its spectrum, which Perron-Frobenius makes equal to rho(M)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DomainError("perron_eigenvalue: square matrix required")
    if np.any(M < 0.0) or not np.all(np.isfinite(M)):
        raise DomainError("perron_eigenvalue: nonnegative finite matrix required")
    positive = M > 0.0
    if not positive.any():
        raise DomainError("perron_eigenvalue: zero matrix")
    if not _reachable_everywhere(positive):
        raise DomainError("perron_eigenvalue: matrix is reducible")
    with np.errstate(invalid="ignore"):
        root = float(_eigvals(M).real.max())
    if not math.isfinite(root):
        raise NumericError("perron_eigenvalue: eigensolve failed (non-finite eigenvalues)")
    return root


def maximize_concave_1d(g, lo, hi, tol=1e-10):
    """Golden-section maximization of a concave function on [lo, hi].

    One problem per call, on Python floats: the bounds are scalars (Python
    or NumPy scalars, 0-d arrays; anything else is a DomainError) and g maps
    a float to its value, so rate_function runs one golden section per
    theta.  Returns floats (argmax, g(argmax)); the argmax is within tol of
    the true maximizer (boundary maxima included).  gc >= gd is False where
    either is NaN, and the bracket then moves up.
    """
    if np.ndim(lo) != 0 or np.ndim(hi) != 0:
        raise DomainError("maximize_concave_1d: scalar bounds required")
    a, b = float(lo), float(hi)
    if not a < b:
        raise DomainError("maximize_concave_1d: need lo < hi")
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    gc, gd = g(c), g(d)
    while b - a > tol:
        if gc >= gd:
            b, d, gd = d, c, gc
            c = b - _GOLDEN * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + _GOLDEN * (b - a)
            gd = g(d)
    x = 0.5 * (a + b)
    return x, float(g(x))


_SHARD_FANOUT = 2**20


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream: (seed, stream_id) pins every draw bit-exactly."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not (self.seed >= 0 and self.stream_id >= 0):
            raise DomainError("RngStream: seed and stream_id must be nonnegative")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(ss))

    def shard(self, index: int) -> "RngStream":
        """Independent child stream for shard `index` (index < 2**20 - 1)."""
        if not 0 <= index < _SHARD_FANOUT - 1:
            raise DomainError("RngStream.shard: index out of range")
        return RngStream(self.seed, self.stream_id * _SHARD_FANOUT + 1 + index)


_BLOCKS = 16
_CHUNK_BYTES = 1 << 20  # one _lockstep_draws chunk, all blocks together
_MAX_TRIALS = 10**7  # 100x the CLI and benchmark sizes; one row of 10^7 floats is 80 MB
_MAX_STEPS = 10**8  # 1000x the CLI default --steps; about 6 s of scalar JSCC simulation
# trials x steps of one call: 25x the largest test (10^5 trials x 4000 steps);
# the BSMS excess sampler, at ~1.6 s per 2 x 10^8 on a 2-vCPU VM, takes ~80 s
_MAX_TRIAL_STEPS = 10**10


def _trial_blocks(rng: RngStream, trials):
    """(generator, size) per block: trials split as evenly as possible over
    at most _BLOCKS blocks, block i drawing from rng.shard(i)."""
    blocks = min(_BLOCKS, trials)
    for i in range(blocks):
        yield rng.shard(i).generator(), trials // blocks + (1 if i < trials % blocks else 0)


def _check_counts(trials, n):
    """DomainError unless `trials` and `n` are integers with at most
    _MAX_TRIALS trials, _MAX_STEPS steps and _MAX_TRIAL_STEPS trials x steps."""
    if not (isinstance(trials, numbers.Integral) and isinstance(n, numbers.Integral)):
        raise DomainError(f"Monte Carlo trials and steps must be integers ({trials!r}, {n!r})")
    if trials > _MAX_TRIALS:
        raise DomainError(f"more than {_MAX_TRIALS} Monte Carlo trials requested ({trials})")
    if n > _MAX_STEPS:
        raise DomainError(f"more than {_MAX_STEPS} Monte Carlo steps requested ({n})")
    if trials * n > _MAX_TRIAL_STEPS:
        raise DomainError(f"more than {_MAX_TRIAL_STEPS} Monte Carlo trial-steps requested "
                          f"({trials} trials x {n} steps)")


def _lockstep_draws(rng: RngStream, trials, n, draw, rows=(), first=None):
    """The _trial_blocks streams drawn in lockstep, joined on the trial
    (last) axis: draw(g, first + (size,)) once if `first` is given, then n
    arrays of shape rows + (trials,), one per step.

    Each block draws a chunk of c steps in one call, into a (c,) + rows +
    (size,) buffer, which consumes its stream in the order of c single-step
    draws, so every trial sees the draws of the block-at-a-time loop.  A
    chunk of all blocks holds about _CHUNK_BYTES, whatever n is.  The
    buffers are reused from chunk to chunk (fresh ones per chunk cost a page
    fault per 4 KiB at large trial counts), so a step's array is only valid
    until the next one is asked for.  The counts are checked
    (_check_counts) at the first draw, before anything is allocated."""
    _check_counts(trials, n)
    blocks = list(_trial_blocks(rng, trials))
    if first is not None:
        yield np.concatenate([draw(g, first + (size,)) for g, size in blocks], axis=-1)
    chunk = min(n, max(1, _CHUNK_BYTES // (8 * trials * math.prod(rows))))
    parts = [np.empty((chunk,) + rows + (size,)) for _, size in blocks]
    joined = np.empty((chunk,) + rows + (trials,))
    for start in range(0, n, chunk):
        c = min(chunk, n - start)
        for (g, _), part in zip(blocks, parts):
            draw(g, out=part[:c])
        yield from np.concatenate([part[:c] for part in parts], axis=-1, out=joined[:c])
