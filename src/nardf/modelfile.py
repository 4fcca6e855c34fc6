"""Plain-text model files for state-space sources.

A model file declares the dimensions and the four matrices of a linear
source

    Z_{t+1} = A Z_t + B W_t,      X_t = C Z_t + N V_t,

as whitespace-separated tokens.  Dimension keys must precede the matrices
they size::

    # two-dimensional source, scalar observation noise
    m 2
    k 2
    p 2
    d 1
    A  0.9 0.1
       0.0 0.8
    B  1 0
       0 1
    C  1 0
       0 1
    N  0.5
       0.5

Matrices are row-major; line breaks inside a matrix are insignificant.
``#`` starts a comment that runs to the end of the line.  ``N`` is required
exactly when ``d > 0``.  Unknown keys are rejected.
"""

from __future__ import annotations

import numpy as np

from .gauss import GaussModel

__all__ = ["ModelFormatError", "load_model", "parse_model_text"]

_DIM_KEYS = ("m", "k", "p", "d")
_MATRIX_SHAPES = {
    "A": ("m", "m"),
    "B": ("m", "k"),
    "C": ("p", "m"),
    "N": ("p", "d"),
}


class ModelFormatError(ValueError):
    """Raised when a model file is malformed (a usage error, not a domain one)."""


def _tokenize(text: str) -> list[str]:
    tokens = []
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        tokens.extend(body.split())
    return tokens


def _parse_int(token: str, key: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ModelFormatError(f"dimension {key!r} expects an integer, got {token!r}") from None
    if value < 0:
        raise ModelFormatError(f"dimension {key!r} must be nonnegative, got {value}")
    return value


def _parse_float(token: str, key: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ModelFormatError(f"matrix {key!r} expects a number, got {token!r}") from None


def parse_model_text(text: str) -> GaussModel:
    """Parse the model-file syntax from a string.  See the module docstring."""
    tokens = _tokenize(text)
    dims: dict[str, int] = {}
    matrices: dict[str, np.ndarray] = {}
    i = 0
    while i < len(tokens):
        key = tokens[i]
        i += 1
        if key in _DIM_KEYS:
            if key in dims:
                raise ModelFormatError(f"dimension {key!r} declared twice")
            if i >= len(tokens):
                raise ModelFormatError(f"dimension {key!r} has no value")
            dims[key] = _parse_int(tokens[i], key)
            i += 1
        elif key in _MATRIX_SHAPES:
            if key in matrices:
                raise ModelFormatError(f"matrix {key!r} declared twice")
            rkey, ckey = _MATRIX_SHAPES[key]
            missing = [k for k in (rkey, ckey) if k not in dims]
            if missing:
                raise ModelFormatError(
                    f"matrix {key!r} needs dimension(s) {missing} declared first"
                )
            rows, cols = dims[rkey], dims[ckey]
            count = rows * cols
            if i + count > len(tokens):
                raise ModelFormatError(
                    f"matrix {key!r} needs {count} entries ({rows}x{cols}), "
                    f"found only {len(tokens) - i}"
                )
            entries = [_parse_float(tokens[i + j], key) for j in range(count)]
            matrices[key] = np.asarray(entries, dtype=float).reshape(rows, cols)
            i += count
        else:
            raise ModelFormatError(f"unknown key {token_repr(key)} in model file")

    for key in _DIM_KEYS:
        if key not in dims:
            raise ModelFormatError(f"missing dimension {key!r}")
    if dims["m"] < 1 or dims["k"] < 1 or dims["p"] < 1:
        raise ModelFormatError("dimensions m, k, p must be at least 1")
    for key in ("A", "B", "C"):
        if key not in matrices:
            raise ModelFormatError(f"missing matrix {key!r}")
    if dims["d"] > 0:
        if "N" not in matrices:
            raise ModelFormatError("matrix 'N' is required when d > 0")
    else:
        if "N" in matrices:
            raise ModelFormatError("matrix 'N' given but d = 0")
        matrices["N"] = np.zeros((dims["p"], 0))

    return GaussModel(
        A=matrices["A"], B=matrices["B"], C=matrices["C"], N=matrices["N"]
    )


def token_repr(token: str) -> str:
    # keep error messages short even if someone feeds a binary blob
    return repr(token if len(token) <= 20 else token[:17] + "...")


def load_model(path: str) -> GaussModel:
    """Read and parse a model file from disk."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file {path!r}: {exc}") from None
    return parse_model_text(text)
