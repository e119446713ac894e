"""Grid kernels: wiring of the packed Laurent grid and the interior grid."""

import numpy as np

from epresolve import kernels
from epresolve.boundary import BoundaryModel, bm_scatter

K = np.linspace(-12.0, 12.0, 160)
X = np.linspace(-8.0, 8.0, 90)


def test_laurent_grid_matches_expression_eval():
    F = bm_scatter(BoundaryModel(3))
    ms, ps, cs = F.to_term_arrays()
    scale = (2.0 * np.pi) ** (-0.5 * F.unit_pow)
    grid = kernels.el_eval_grid(ms, ps, cs, F.phase_x, F.phase_z, scale, K, X, 1j)
    ref = F.eval(K[:, None], X[None, :], 1j)
    assert grid.shape == (K.size, X.size)
    assert np.max(np.abs(grid - ref)) < 1e-12 * np.max(np.abs(ref))


def test_regularized_grid_is_finite_at_the_resonance():
    out = kernels.interior_psi_grid(np.array([1.0, -1.0]), X, 1.0, 1j, True)
    assert np.all(np.isfinite(out))
