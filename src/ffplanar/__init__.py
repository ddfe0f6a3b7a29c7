"""Planar-function constructions and cross-validated planarity testing on
finite field extension towers."""

from .config import Config
from .field import (
    AdditiveChar,
    FieldCtx,
    MultiplicativeChar,
    additive_chars,
    ctx_from_json,
    multiplicative_chars,
    new_ctx,
)
from .linpoly import (
    LinearizedPoly,
    Subspace,
    all_subspaces,
    annihilator_coeffs,
    image_poly_for_subspace,
)
from .planarity import (
    MonomialSum,
    PlanarCandidate,
    VerificationReport,
    criterion_quadratic,
    is_planar_bruteforce,
    is_planar_rank,
    is_planar_reduction,
)
from .families import (
    CubicCoeffs,
    MonomialFamilyParams,
    NbcFamilyParams,
    cubic_lemma_bruteforce,
    cubic_lemma_predicate,
    cubic_theorem_predicate,
    example1_construct,
    nonexistence_witness,
    theorem_monomial_predicate,
    theorem_nbc_predicate,
)
from .charsum import (
    CountRecord,
    MonicPoly,
    a_sum,
    count_solutions,
    phi,
)
from .search import SearchJob, run
from .selftest import run_selftest

__version__ = "0.1.0"

__all__ = [
    "AdditiveChar", "Config", "CountRecord", "CubicCoeffs", "FieldCtx",
    "LinearizedPoly", "MonicPoly", "MonomialFamilyParams", "MonomialSum",
    "MultiplicativeChar", "NbcFamilyParams", "PlanarCandidate", "SearchJob",
    "Subspace", "VerificationReport", "a_sum", "additive_chars",
    "all_subspaces", "annihilator_coeffs", "count_solutions",
    "criterion_quadratic", "ctx_from_json", "cubic_lemma_bruteforce",
    "cubic_lemma_predicate", "cubic_theorem_predicate", "example1_construct",
    "image_poly_for_subspace", "is_planar_bruteforce", "is_planar_rank",
    "is_planar_reduction", "multiplicative_chars", "new_ctx",
    "nonexistence_witness", "phi", "run", "run_selftest",
    "theorem_monomial_predicate", "theorem_nbc_predicate",
]
