"""Exact analysis of cubic symmetry algebras via deformed oscillators.

The package derives, from the structure constants of a cubic associative
algebra with generators A, B and C = [A, B], the deformed oscillator
realization and its structure function, enumerates the finite dimensional
unitary representations and the energy values they carry, and cross checks
the results against explicit matrix representations, differential operator
algebra, and a finite difference eigensolver.

The headline entry points are re-exported here; the stage modules
(weylop, algebra, ladder, spectrum, repcheck, schrodinger, cli) carry
the full interfaces.
"""

from .algebra import AlgebraSpec, jacobi_reduce, master_table, q5_algebra
from .ladder import derive_realization, derive_structure_function
from .repcheck import matrix_module, q5_module, relation_residuals
from .schrodinger import compare, q5_levels
from .spectrum import (
    branch_roots,
    complete_truncation,
    energy_families,
    family_instance,
    q5_structure_function,
    unitarity_decision,
    unitarity_table,
    unitarity_verdict,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraSpec",
    "jacobi_reduce",
    "master_table",
    "q5_algebra",
    "derive_realization",
    "derive_structure_function",
    "matrix_module",
    "q5_module",
    "relation_residuals",
    "compare",
    "q5_levels",
    "branch_roots",
    "complete_truncation",
    "energy_families",
    "family_instance",
    "q5_structure_function",
    "unitarity_decision",
    "unitarity_table",
    "unitarity_verdict",
    "__version__",
]
