"""Exact tempered-dual multiplicity structure for rank-one reductive groups.

The package computes, for a catalog of rank-one groups, the K-type and
branching combinatorics that control the tempered dual at real
infinitesimal character: windowed K-type enumerations, principal-series
constituents and their minimal K-types, discrete series with exact
K-type multiplicities, the multiplicity matrix of the representation-ring
map it induces, and machine checks of the minimal-K-type bijection,
lower-triangularity, and the boundary dimension identities.
"""

from .weights import (
    CYCLIC2,
    SO3,
    SU2,
    TORUS1,
    CompactGroup,
    FormalSum,
    enumerate_ktypes,
    vogan_norm,
    weyl_dim,
)
from .branching import restricted_range
from .catalog import (
    BUILTIN_NAMES,
    CatalogError,
    DiscreteSeriesDatum,
    GroupDatum,
    builtin,
    load,
    serialize,
)
from .tempered import (
    InternalInconsistencyError,
    PrincipalClass,
    TempiricRep,
    Window,
    blattner_mult,
    blattner_scatter,
    constituents,
    ds_enumerate,
    make_principal_class,
    minimal_ktypes,
    tempiric_window,
)
from .cktheory import (
    DEFAULT_SEED,
    MultMatrix,
    UnresolvedColumnsError,
    VerificationReport,
    WindowError,
    admissibility_check,
    blattner_consistency_check,
    boundary_block_dims,
    composite_map,
    dimension_identity_check,
    invert_window,
    mult_matrix,
    random_ktype_sums,
    triangularity_check,
    verify,
    vogan_bijection_check,
)
from .figures import DiagramSpec, build_diagram

__version__ = "0.1.0"
