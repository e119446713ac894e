"""Exact chain algebra, biorthogonal pairings, and identity-resolution
schemes for two exactly solvable non-self-adjoint Schrodinger models."""

from .exact import (
    RationalComplex,
    ExpLaurent,
    dfact,
    el_diff_x,
    el_apply_q,
    el_apply_h,
    el_limit_k0_deriv,
)
from .boundary import (
    ChainClass,
    BoundaryModel,
    bm_potential,
    bm_assoc,
    bm_growing,
    bm_scatter,
    bm_scatter_ladder,
    bm_classify,
    bm_apply_h,
)
from .interior import (
    InteriorModel,
    im_potential,
    im_scatter,
    im_psi0,
    im_psi1,
    im_tail_model,
)
from .report import VerificationReport
from .greens import IndexTriple, green, indexes, pole_order
from .susy import (
    ChainKind,
    TransformationChain,
    growing_chain,
    normalizable_chain,
    wronskian,
    darboux_potential,
    verify_intertwining,
    multiplicity_delta,
)
from .resolution import (
    Scheme,
    SchemeId,
    TestFunction,
    apply_scheme,
    apply_base_resolution,
    beta_seq,
    coeff_C,
    eps_chain,
    psi1_expandability,
    reproduce_psi0_term,
    reproduce_psi20_terms,
)
from .biortho import (
    overlap_zero,
    overlap_chain_scatter,
    overlap_growing,
    scatter_norm,
    interior_biortho,
)

__version__ = "0.1.0"
