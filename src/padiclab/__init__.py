"""Numerical laboratory for digit-string local-field models.

Field parameters ``(p, e, f)`` and finite ball-tree windows; the
forward-difference operator, its square and its commutators with
multiplication operators, assembled as sparse matrices; exact component
spectra via roots of a q-hypergeometric series; truncated-matrix
cross-validation; Hilbert-Schmidt, Schatten, and zeta evaluations with
certified tail bounds; and Lipschitz-vs-commutator seminorm comparisons.

Every public name is listed once, in its module's ``__all__``; this package
re-exports them all.
"""

from . import field_model, operators, qspecial, seminorms, spectrum_zeta, tree
from .field_model import *  # noqa: F403
from .operators import *  # noqa: F403
from .qspecial import *  # noqa: F403
from .seminorms import *  # noqa: F403
from .spectrum_zeta import *  # noqa: F403
from .tree import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (field_model, tree, operators, qspecial, spectrum_zeta, seminorms)
    for name in module.__all__
]
