"""The LAPACK gufuncs behind numpy.linalg, called without its per-call wrapper.

The lab's solves are on 1x1 to 12x12 float64 matrices, where the wrapper of
numpy.linalg.solve, cholesky, svd(compute_uv=False) and eigvals (argument
conversion, type resolution, shape checks) costs more than LAPACK.  Each
function here calls the gufunc that wrapper calls, with the same signature,
under the same np.errstate and with the same LinAlgError messages, so its
results are numpy.linalg's bit for bit.  Arguments must be float64 arrays of
at least two dimensions, square in the last two except for svd_values;
callers that cannot rule a shape out check it themselves.  eigvals keeps the
wrapper's finiteness check and its real result when every imaginary part
is 0.

The gufunc names are private to numpy and are those of numpy 2 (numpy 1.x
splits svd into svd_n and svd_m); a numpy without one fails at import.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg


def _gufunc(name: str):
    try:
        return getattr(_umath_linalg, name)
    except AttributeError:
        raise ImportError(f"numpy.linalg._umath_linalg has no gufunc {name!r}; mfaclab needs numpy>=2.0") from None


_SOLVE, _SOLVE1, _CHOLESKY, _SVD, _EIGVALS = map(_gufunc, ("solve", "solve1", "cholesky_lo", "svd", "eigvals"))


def _errstate(message: str) -> np.errstate:
    """numpy.linalg's error state: a LAPACK failure raises LinAlgError(message)."""
    def fail(err, flag):
        raise LinAlgError(message)
    return np.errstate(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")


@_errstate("Singular matrix")
def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """numpy.linalg.solve(a, b): b is one vector when 1-D, else stacked like a."""
    return (_SOLVE1 if b.ndim == 1 else _SOLVE)(a, b, signature="dd->d")


@_errstate("Matrix is not positive definite")
def cholesky(a: np.ndarray) -> np.ndarray:
    """numpy.linalg.cholesky(a): the lower factor."""
    return _CHOLESKY(a, signature="d->d")


@_errstate("SVD did not converge")
def svd_values(a: np.ndarray) -> np.ndarray:
    """numpy.linalg.svd(a, compute_uv=False): singular values, largest first."""
    return _SVD(a, signature="d->d")


@_errstate("Eigenvalues did not converge")
def eigvals(a: np.ndarray) -> np.ndarray:
    """numpy.linalg.eigvals(a): real when every imaginary part is 0."""
    if not np.isfinite(a).all():
        raise LinAlgError("Array must not contain infs or NaNs")
    w = _EIGVALS(a, signature="d->D")
    return w if w.imag.any() else w.real
