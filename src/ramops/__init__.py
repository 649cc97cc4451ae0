"""Exact symbolic engine for the Ramanujan operad, the cooperad of two-colored
forest algebras, their differentials and Hopf structures, and the comparison
map between the operad and the linear dual of the cooperad."""

from .cache import ComponentStore, default_store, resolve_cache_dir
from .cooperad import (
    cooperad_axiom_check,
    theta,
    theta_intertwines_differentials,
    theta_relation_kill,
)
from .dual import (
    LinearForm,
    compat_checks,
    conjecture_verdict,
    dual_basis_element,
    dual_compose,
    rho,
)
from .forms import eval_element, random_sample_point, relation_survey
from .graphalg import (
    ARNOLD_PRESENTATION,
    AlgebraElement,
    ColorSpec,
    GraphComponent,
    GraphPresentation,
    R_PRESENTATION,
    algebra_basis,
    differential_algebra,
    element_multiply,
    enumerate_graph_monomials,
    ideal_rank_breakdown,
    monomial_from_word,
    multiply,
    path_permutation_sum,
    relabel_element,
    relation_instances,
    relation_words,
)
from .labels import BiDegree, HASH, STAR, atom_key, sort_atoms
from .linalg import Echelon, SparseMatrix, quotient_basis, rank, rref
from .operad import (
    Component,
    GeneratorSpec,
    OperadElement,
    Presentation,
    canonicalize,
    component_basis,
    compose,
    enumerate_tree_monomials,
    ideal_span,
    relabel,
    substitute,
)
from .quotient import Tensor, clear_memos
from .ram import (
    RAM_SIGNATURE,
    ResourceBoundError,
    coproduct,
    differential,
    distributive_check,
    hopf_check,
    operad_dims,
    presentation,
    ram_dims,
)
from .ramanujan import poly_str, predicted_dims, psi
from .suites import SUITES, run_suite

__version__ = "0.1.0"
