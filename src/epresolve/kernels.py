"""Grid-evaluation kernels on (spectral x coordinate) tensor grids.

The kernels evaluate exact Laurent expressions and the interior-model
scattering solution on grids of spectral values ``k`` (rows) and coordinates
``x`` (columns).  Both are thin numpy wrappers over the package's single
evaluator of each quantity: the term loop of
:meth:`epresolve.exact.ExpLaurent.eval` and
:func:`epresolve.interior.im_scatter`, broadcast over the outer grid.

:func:`interior_psi_grid` gives the interior spectral integrand its solution
values.  :func:`el_eval_grid` has no caller in the package: the boundary
transform takes its moments from one composite-grid evaluator
(``resolution._f_osc_moment``) instead of the dense K x N tensor.  It stays
as the tests' tensor oracle for that transform, and the benchmark's tracer
(``perfbench/spans.py``) wraps it by name.

Parameters follow a packed convention: an exact expression contributes
integer power arrays ``ms`` (spectral), ``ps`` (coordinate) and complex
coefficients ``cs`` plus its phase integers and an overall scale; see
:meth:`epresolve.exact.ExpLaurent.to_term_arrays`.
"""

from __future__ import annotations

import numpy as np

from .exact import el_eval_terms
from .interior import InteriorModel, im_scatter

__all__ = ["el_eval_grid", "interior_psi_grid"]


def el_eval_grid(
    ms: np.ndarray,
    ps: np.ndarray,
    cs: np.ndarray,
    sigma: int,
    tau: int,
    scale: float,
    k: np.ndarray,
    x: np.ndarray,
    z: complex,
) -> np.ndarray:
    """Evaluate a packed Laurent expression on the (k, x) tensor grid."""
    K = np.asarray(k, dtype=np.complex128)[:, None]
    XZ = np.asarray(x, dtype=np.float64)[None, :] - z
    out = el_eval_terms(zip(ms, ps, cs), K, XZ)
    out *= scale * np.exp(1j * K * (sigma * XZ + tau * z))
    return out


def interior_psi_grid(
    k: np.ndarray, x: np.ndarray, alpha: float, z: complex, regularized: bool
) -> np.ndarray:
    """Interior scattering solution (or its pole-free multiple) on a grid.

    ``regularized=True`` returns (k^2 - alpha^2) * psi, finite at k = +-alpha.
    """
    K = np.asarray(k, dtype=np.complex128)[:, None]
    X = np.asarray(x, dtype=np.float64)[None, :]
    return im_scatter(InteriorModel(alpha, z), K, X, regularized)
