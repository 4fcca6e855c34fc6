"""Edge values: every argument combination drawn from a fixed set of floats
either gives a finite result or raises DomainError / NumericError.  Tier-1
turns a RuntimeWarning into an error, so a warning fails here too."""

import itertools
import math

import numpy as np
import pytest

from nardf.bsms import classical_gray, gray_critical_distortion, rate_loss_bound, rna_bsms
from nardf.errors import DomainError, NumericError
from nardf.gauss import (
    classical_alpha1,
    partially_observed_sigma,
    rate_loss_alpha1,
    reverse_waterfill,
    rna_scalar_fully_observed,
    rna_scalar_partially_observed,
)
from nardf.numerics import binary_entropy, cubic_positive_root, sym_eig

EDGES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-300,
         0.25, 0.5, 1.0, 1.5, 1e300, -0.3)
# the 5-argument forms reach a companion eigensolve; 8**5 calls each
THIN = (math.nan, math.inf, -0.3, 0.0, 5e-324, 0.5, 1.5, 1e300)

CASES = {
    "binary_entropy": (binary_entropy, 1, EDGES),
    "gray_critical_distortion": (gray_critical_distortion, 1, EDGES),
    "rna_bsms": (rna_bsms, 2, EDGES),
    "classical_gray": (classical_gray, 2, EDGES),
    "rate_loss_bound": (rate_loss_bound, 2, EDGES),
    "classical_alpha1": (classical_alpha1, 2, EDGES),
    "rate_loss_alpha1": (rate_loss_alpha1, 2, EDGES),
    "rna_scalar_fully_observed": (rna_scalar_fully_observed, 3, EDGES),
    "partially_observed_sigma": (partially_observed_sigma, 5, THIN),
    "rna_scalar_partially_observed": (rna_scalar_partially_observed, 5, THIN),
    "cubic_positive_root": (cubic_positive_root, 4, THIN),
    "reverse_waterfill": (lambda a, b, D: reverse_waterfill([a, b], D), 3, EDGES),
    "sym_eig_1x1": (lambda a: sym_eig([[a]]), 1, EDGES),
    "sym_eig_2x2": (lambda a, b, c: sym_eig([[a, b], [b, c]]), 3, EDGES),
}


def _finite(result):
    if isinstance(result, (tuple, list)):  # NamedTuples and (value, flag) pairs
        return all(_finite(part) for part in result)
    return bool(np.all(np.isfinite(np.asarray(result, dtype=float))))


@pytest.mark.parametrize("name", list(CASES))
def test_edge_values_give_finite_result_or_documented_error(name):
    fn, arity, values = CASES[name]
    bad = []
    for args in itertools.product(values, repeat=arity):
        try:
            result = fn(*args)
        except (DomainError, NumericError):
            continue
        except Exception as exc:  # what leaked is the finding
            bad.append((args, f"{type(exc).__name__}: {exc}"))
            continue
        if not _finite(result):
            bad.append((args, result))
    assert not bad, f"{len(bad)} bad calls, e.g. {bad[:3]}"


@pytest.mark.parametrize("fn, args", [
    (reverse_waterfill, ([math.nan, 1.0], 2.0)),
    (reverse_waterfill, ([math.inf, 1.0], 2.0)),
    (reverse_waterfill, ([], 1.0)),
    (sym_eig, (np.zeros((0, 0)),)),
    (sym_eig, (np.zeros((2, 0)),)),
    (partially_observed_sigma, (math.nan, 1.0, 1.0, 0.5, 0.4)),
    (rna_scalar_partially_observed, (0.5, 1.0, 1.0, 0.5, math.nan)),
    (rna_scalar_partially_observed, (0.5, math.inf, 1.0, 0.5, 0.4)),
    (rna_scalar_fully_observed, (0.0, 5e-324, 5e-324)),
    (rna_scalar_fully_observed, (0.0, 0.25, 5e-324)),
    (classical_alpha1, (math.inf, 0.1)),
    (rate_loss_alpha1, (math.inf, math.inf)),
    (cubic_positive_root, (1.0, math.nan, 0.0, -1.0)),
    (cubic_positive_root, (1.0, 0.0, math.inf, -1.0)),
])
def test_reported_edge_cases_are_domain_errors(fn, args):
    with pytest.raises(DomainError):
        fn(*args)


def test_cubic_whose_companion_row_overflows_is_a_numeric_error():
    with pytest.raises(NumericError):
        cubic_positive_root(5e-324, 1.0, 1.0, 1.0)
