"""Exact computation in Serre quotients of computable abelian categories.

The package builds quotient categories of two presented abelian
categories (finitely presented Z-modules and A2 quiver representations)
by localizing torsion classes, computes the associated reflection
(Gabriel) monads exactly, and machine-checks the monad laws, the zig-zag
identities, and the five saturating axioms that characterize such monads,
with a deliberately broken fixture as a negative control.
"""

__version__ = "0.1.0"

from .category import ShortExactSequence, rng_for
from .linalg import Mat, PrimeField, QQ, int_solve
from .quiver import A2Engine, SinkSupportTheory
from .serre import (
    AxiomReport, ColimitHom, MonadData, QuotientMorphism, cokernel_in_sat, colift_H,
    make_candidate, monad_at, q_compose, q_eq, q_hom, q_hom_via_colimit, q_id,
    q_is_iso, q_is_zero, q_of, qmor_eq, quotient_invert, run_suite, w_on_morphism,
)
from .zmodules import (
    FiniteAbelianEngine, FixtureTheory, PPrimaryTheory, ZModuleEngine,
    finite_subobject_embeddings,
)

__all__ = [
    "A2Engine", "AxiomReport", "ColimitHom", "FiniteAbelianEngine",
    "FixtureTheory", "Mat", "MonadData", "PPrimaryTheory", "PrimeField", "QQ",
    "QuotientMorphism", "ShortExactSequence", "SinkSupportTheory",
    "ZModuleEngine", "cokernel_in_sat", "colift_H", "finite_subobject_embeddings",
    "int_solve", "make_candidate", "monad_at", "q_compose", "q_eq",
    "q_hom", "q_hom_via_colimit", "q_id", "q_is_iso", "q_is_zero", "q_of",
    "qmor_eq", "quotient_invert", "rng_for", "run_suite", "w_on_morphism",
]
