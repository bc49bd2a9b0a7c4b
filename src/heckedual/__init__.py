"""Root-datum duality, extended dual data, spherical Hecke expansions and
local R-factors, all in exact arithmetic."""

from .dualdata import (
    ExtendedDatum,
    LanglandsDualData,
    decompose_quotient,
    epsilon_of,
    extend_datum,
    langlands_dual_data,
    solve_rho_weights,
)
from .errors import (
    CapExceededError,
    HeckedualError,
    OmegaViolationError,
    PoleError,
    RankMismatchError,
    UsageError,
    ValidationError,
)
from .lattice import GroupAlgebraElement, Laurent
from .rootdatum import (
    BUILTINS,
    TRIVIAL,
    RootDatum,
    WeylElement,
    datum_isomorphic,
    dominance_leq,
    dominant_below,
    dual_datum,
    positive_roots,
    stabilizer_poincare,
    validate_datum,
    weyl_group,
)
from .rfunc import (
    DualRepresentation,
    QuadExt,
    RFactor,
    TorusAssignment,
    UnramifiedParameter,
    contragredient_rep,
    epsilon_twist,
    local_rfactor,
    make_parameter,
    partial_rfunction,
    split_by_sqrt,
    sqrt_of,
)
from .satake import (
    HeckeExpansion,
    SphericalFunction,
    UnramifiedCharacter,
    compare_rank1_oracle,
    dot_act,
    lift_exponent,
    satake_image,
    structure_polynomials,
    tree_structure_constants,
)

__version__ = "0.1.0"
