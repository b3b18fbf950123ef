"""Numerical laboratory for digit-string local-field models.

Field parameters ``(p, e, f)`` and finite ball-tree windows; the
forward-difference operator, its square and its commutators with
multiplication operators, assembled as sparse matrices; exact component
spectra via roots of a q-hypergeometric series; truncated-matrix
cross-validation; Hilbert-Schmidt, Schatten, and zeta evaluations with
certified tail bounds; and Lipschitz-vs-commutator seminorm comparisons.

Every public name is listed once, in its module's ``__all__``; this package
re-exports them all.

The namespace loads lazily (PEP 562): ``import padiclab`` binds only
``__version__``.  The first lookup of any other name, including ``__all__``,
a submodule or ``from padiclab import *``, imports the six modules below and
binds every public name, so ``padiclab.X`` works as if they had been imported
up front; ``spectrum_zeta`` serves the three names of the window validator,
which lives in ``validation``, and imports that module for them.  A submodule
import such as ``import padiclab.qspecial`` loads only that module and what it
imports; ``padiclab spectrum`` and ``padiclab zeta`` thus never load numpy,
``tree``, ``operators``, ``seminorms`` or ``validation``.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("field_model", "tree", "operators", "qspecial", "spectrum_zeta", "seminorms")


def __getattr__(name: str):
    namespace = globals()
    if "__all__" not in namespace:
        modules = [importlib.import_module(f"{__name__}.{m}") for m in _MODULES]
        exported = [n for module in modules for n in module.__all__]
        namespace.update((n, getattr(module, n)) for module in modules for n in module.__all__)
        namespace["__all__"] = exported
    try:
        return namespace[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    __getattr__("__all__")
    return sorted(globals())
