"""eszk: exact integer toolkit for ordered-polygon convexity.

Polygons are ordered point sequences (duplicates allowed).  The package
provides exact orientation predicates, two independent convexity
deciders, convex sub-polygon search via orientation-sign colorings,
lower-bound certificates for the least polygon size forcing a convex
sub-k-gon, and a reproducible annealing search for new extremal
configurations.  Every answer rests on exact integer arithmetic; the one
use of floating point, the slope filter of the strictness test, can only
say "strict" and hands every collision to an exact integer test (see
``geometry``).
"""

from .convexity import (
    ConvexityVerdict,
    ToOneSideWitness,
    convex_permutations,
    is_convex,
    is_pre_convex,
    oracle_test,
    sign_test,
    to_one_side,
)
from .errors import (
    CapabilityError,
    EszkError,
    ExhaustionError,
    InputError,
    ParseError,
    PreconditionError,
)
from .extremal import (
    BoundRecord,
    Certificate,
    SEVEN_GON_CERTIFICATE,
    SearchConfig,
    SearchResult,
    bounds_for,
    grow,
    search_extremal,
    verify_certificate,
)
from .formats import parse_polygon, polygon_to_json, polygon_to_text
from .geometry import (
    COORD_BOUND,
    ClassificationReport,
    Point,
    Polygon,
    classify,
    convex_hull,
    orient2d,
    perturb_to_strict,
)
from .subgons import (
    BAD,
    GOOD,
    TripleColoring,
    count_convex_subgons,
    find_convex_subgon,
    find_totally_monochromatic,
    sub_polygon,
    triple_coloring,
)

__version__ = "0.1.0"

__all__ = [
    "BAD",
    "BoundRecord",
    "COORD_BOUND",
    "CapabilityError",
    "Certificate",
    "ClassificationReport",
    "ConvexityVerdict",
    "EszkError",
    "ExhaustionError",
    "GOOD",
    "InputError",
    "ParseError",
    "Point",
    "Polygon",
    "PreconditionError",
    "SEVEN_GON_CERTIFICATE",
    "SearchConfig",
    "SearchResult",
    "ToOneSideWitness",
    "TripleColoring",
    "bounds_for",
    "classify",
    "convex_hull",
    "convex_permutations",
    "count_convex_subgons",
    "find_convex_subgon",
    "find_totally_monochromatic",
    "grow",
    "is_convex",
    "is_pre_convex",
    "oracle_test",
    "orient2d",
    "parse_polygon",
    "perturb_to_strict",
    "polygon_to_json",
    "polygon_to_text",
    "search_extremal",
    "sign_test",
    "sub_polygon",
    "to_one_side",
    "triple_coloring",
    "verify_certificate",
]
