"""Exact construction and verification of linear sections e + V for the
adjoint action of block upper-triangular groups on their nilradicals."""

from .construction import (
    LEFTMOST,
    RIGHTMOST,
    Line,
    LineSet,
    Section,
    extract_section,
    lineset_to_json,
    step1,
    step2,
    step3,
    verify_P1,
    verify_P2,
)
from .invariants import (
    MinorSpec,
    build_minor,
    generic_invariant,
    restrict_to_E,
    restrict_to_section,
    section_coordinate,
)
from .poly import Polynomial, SymbolicMatrix, det
from .tableau import (
    Composition,
    MatrixUnit,
    NeighborPair,
    Tableau,
    bs_degree,
    compositions,
    nilradical_basis,
)
from .verify import (
    codim_orbit,
    density_check,
    grading_element,
    separation_matrix,
    separation_rank,
    verify_composition,
)

__version__ = "0.1.0"

__all__ = [
    "Composition",
    "LEFTMOST",
    "Line",
    "LineSet",
    "MatrixUnit",
    "MinorSpec",
    "NeighborPair",
    "Polynomial",
    "RIGHTMOST",
    "Section",
    "SymbolicMatrix",
    "Tableau",
    "bs_degree",
    "build_minor",
    "codim_orbit",
    "compositions",
    "density_check",
    "det",
    "extract_section",
    "generic_invariant",
    "grading_element",
    "lineset_to_json",
    "nilradical_basis",
    "restrict_to_E",
    "restrict_to_section",
    "section_coordinate",
    "separation_matrix",
    "separation_rank",
    "step1",
    "step2",
    "step3",
    "verify_P1",
    "verify_P2",
    "verify_composition",
]
