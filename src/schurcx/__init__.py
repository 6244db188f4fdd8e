"""Schur complexes of bounded free complexes over polynomial rings.

The package builds the complex S_shape(F) attached to a partition and a
bounded complex F of finitely generated free modules, using the basis of
standard tableaux with signed entries (negative entries index odd basis
elements and may repeat down a column, positive entries index even basis
elements and may repeat along a row).  Non-standard column words are
rewritten into that basis by `straighten`.

>>> from schurcx import koszul_complex, PolyRing, RATIONALS, schur_complex
>>> ring = PolyRing(RATIONALS, ("x", "y"))
>>> f = koszul_complex(ring.gens())
>>> schur_complex((1, 1), f).ranks
(2, 4, 2)
"""

from .ring import (GF, RATIONALS, CoefficientField, PolyMatrix, PolyRing,
                   Polynomial, format_polynomial, is_prime, mat_generic_rank,
                   mat_mul, mat_rank_at_point, mat_rank_exact, parse_polynomial,
                   scalar_rank)
from .complexes import (FreeComplex, ParityBasis, complex_from_dict,
                        complex_to_dict, homology_ranks_at_point,
                        koszul_complex, load_complex, parity_split,
                        ring_from_dict, ring_to_dict, save_complex,
                        validate_complex)
from .tableaux import (Partition, RelationSpan, Tableau, Violation,
                       column_basis, column_is_canonical, column_product,
                       deconcatenate, enumerate_standard, find_violation,
                       is_standard, normalize_column, relation_membership,
                       shuffle_mul, straighten, tableau_sort_key, tensor_embed,
                       theta_expand, theta_image, wedge_coproduct)
from .schur import (SchurBasis, exterior_power, schur_complex, symmetric_power,
                    tableau_degree, tableau_differential)

__version__ = "0.1.0"

__all__ = [
    "GF", "RATIONALS", "CoefficientField", "PolyMatrix", "PolyRing",
    "Polynomial", "format_polynomial", "is_prime", "mat_generic_rank",
    "mat_mul", "mat_rank_at_point", "mat_rank_exact", "parse_polynomial",
    "scalar_rank",
    "FreeComplex", "ParityBasis", "complex_from_dict", "complex_to_dict",
    "homology_ranks_at_point", "koszul_complex", "load_complex",
    "parity_split", "ring_from_dict", "ring_to_dict", "save_complex",
    "validate_complex",
    "Partition", "RelationSpan", "Tableau", "Violation", "column_basis",
    "column_is_canonical", "column_product", "deconcatenate",
    "enumerate_standard", "find_violation", "is_standard", "normalize_column",
    "relation_membership", "shuffle_mul", "straighten", "tableau_sort_key",
    "tensor_embed", "theta_expand", "theta_image", "wedge_coproduct",
    "SchurBasis", "exterior_power", "schur_complex",
    "symmetric_power", "tableau_degree", "tableau_differential",
]
