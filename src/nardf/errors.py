"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes (DomainError -> 4, NumericError -> 3,
argparse usage problems -> 2), so library code should raise the most
specific of the two rather than bare ValueError/RuntimeError.
"""

__all__ = ["DomainError", "NumericError"]


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class NumericError(RuntimeError):
    """A numerical procedure failed (non-convergence, no real root, ...)."""
