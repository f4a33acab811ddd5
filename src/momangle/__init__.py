"""Cohomology rings of moment-angle complexes over simplicial complexes."""

from .cellular import (
    RK_MAX_VERTICES,
    ZK_MAX_VERTICES,
    rk_betti,
    rk_chain_complex,
    zk_betti,
    zk_chain_complex,
)
from .classify import (
    GorensteinReport,
    MNGReport,
    RecognitionReport,
    TFAEReport,
    VerificationReport,
    is_gorenstein_star,
    is_minimally_non_golod,
    recognize_connected_sum,
    tfae_check,
    verify_theorem_1_1,
    verify_theorem_1_2,
    verify_theorem_4_2,
)
from .complexes import (
    MAX_VERTICES,
    SimplicialComplex,
    boundary_simplex,
    cone,
    disjoint_points,
    from_dict,
    from_facets,
    from_json,
    generate,
    mask_of,
    polygon,
    simplex,
    stacked_sphere,
    vertices_of,
)
from .errors import (
    BadParams,
    EmptySubset,
    FieldMismatch,
    GhostVertex,
    InputError,
    InternalInvariant,
    MomangleError,
    NotAFace,
    NotAField,
    OutOfRange,
    ParseError,
    TooManyVertices,
)
from .hochster import (
    HOCHSTER_MAX_VERTICES,
    HochsterTable,
    duality_check,
    format_poincare,
    hochster_table,
)
from .linalg import (
    INT,
    PRIME,
    RAT,
    ChainComplex,
    Coefficients,
    CocycleBasis,
    HomologyProfile,
    cocycle_basis,
    coefficients_from_token,
    homology_profile,
    reduced_homology,
)
from .products import (
    Cochain,
    GolodReport,
    ProductTable,
    TorClass,
    is_cup_golod,
    multiply,
    product_table,
    tor_basis,
)

__version__ = "0.1.0"
