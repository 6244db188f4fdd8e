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

from .ring import GF, RATIONALS, PolyMatrix, PolyRing, mat_rank_exact
from .complexes import (FreeComplex, homology_ranks_at_point, koszul_complex,
                        mat_generic_rank, save_complex, validate_complex)
from .tableaux import Tableau, enumerate_standard, straighten
from .schur import SchurBasis, exterior_power, schur_complex, symmetric_power

__version__ = "0.1.0"

__all__ = [
    "GF", "RATIONALS", "PolyMatrix", "PolyRing", "mat_generic_rank",
    "mat_rank_exact",
    "FreeComplex", "homology_ranks_at_point", "koszul_complex", "save_complex",
    "validate_complex",
    "Tableau", "enumerate_standard", "straighten",
    "SchurBasis", "exterior_power", "schur_complex", "symmetric_power",
]
