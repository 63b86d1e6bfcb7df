"""Exact supercharacter tables for pattern groups and algebra groups over F_q."""

from .errors import (
    BadField,
    InternalInvariantViolation,
    NonIntegralScaling,
    NonMonomialRepresentative,
    NotAssociative,
    NotClosed,
    NotNilpotent,
    PairOutOfRange,
    ParseError,
    ShapeMismatch,
    SizeCapExceeded,
    SpecMismatch,
    SuperCharError,
)
from .gf import CharValue, CycInt, Fq, FqMatrix, nullspace_basis, perp_to_nullspace, rank, solve, theta
from .poset import (
    ClosedSet,
    close_covers,
    derived_subgroup,
    functional,
    parse_spec,
    support,
    validate_closed,
)
from .core import Orbit, OrbitPartition, PatternGroup
from .formula import (
    CharacterEvaluator,
    ann_spaces,
    degree,
    full_un_irreducible,
    irreducible_sufficient,
    is_irreducible,
    superclass_is_class_sufficient,
    value,
    value_blocks,
    value_heisenberg,
    value_no4chain,
    value_un,
)
from .algebra import (
    StructureAlgebra,
    constants_from_matrices,
    parse_algebra_spec,
    pattern_envelope,
    validate_algebra,
)
from .oracle import Oracle, full_check
from .table import SuperTable, build_algebra_table, build_pattern_table

__version__ = "0.1.0"
