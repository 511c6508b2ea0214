"""torilat: exact computations with homogeneous lattice ideals on
complete simplicial toric varieties over prime fields, and the
generalized toric codes they define."""

from .codes import (
    CodeSummary,
    code_parameters,
    degree_leq,
    evaluation_matrix,
    hilbert_function,
    hilbert_table,
    injectivity_certified,
    injectivity_check,
    injectivity_exact,
)
from .errors import CapExceededError, InternalError, TorilatError, ValidationError
from .gfield import PrimeField, primitive_root
from .grading import (
    Degree,
    ToricSetup,
    degree_of,
    in_semigroup_Khat,
    is_homogeneous,
    monomial_basis,
    positive_functional,
    setup_from_beta,
    setup_from_rays,
)
from .intlin import (
    SNFResult,
    hnf,
    integer_kernel,
    lattice_equal,
    snf,
)
from .lattice import (
    Binomial,
    DegenerateLattice,
    LatticeIdealPresentation,
    complete_intersection,
    degenerate_lattice,
    hilbert_of_lattice,
    is_dominating,
    is_mixed,
    lattice_ideal_generators,
    point_ideal,
    torus_ideal,
)
from .torus import (
    GroupStructure,
    PointSet,
    TorusPoint,
    all_torus_points,
    canonical_form,
    degenerate_torus,
    group_structure,
    parameterize_zero_set,
    point_from_canon,
    point_from_rep,
    points_from_parameterization,
    subgroup_closure,
    vanishing_lattice,
    zero_set_in_torus,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
