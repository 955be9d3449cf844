"""The scipy functions that only two routes call, loaded on their first call.

scipy.integrate imports scipy.optimize, sparse, spatial and constants
with it, and scipy.linalg its LAPACK library: about a third of a fresh
``import kinkzeta`` between them, for the Mellin zeta (quad) and the
lattice oracle (the LAPACK solvers) alone.  Each name below is bound
when the package is imported, so a module can take it by name and a
caller can replace it there (a test's fake, a tracer's span); its
subpackage is imported the first time it is called.  scipy.special and
scipy.fft load at import: nearly every route needs them.  CONVENTIONS
item 24 gives the policy and the measured start-up times.
"""

from __future__ import annotations

import importlib
from typing import Callable

__all__: list[str] = []


def _deferred(module: str, name: str) -> Callable:
    """module.name, imported when the returned function is first called."""
    def call(*args, **kwargs):
        return getattr(importlib.import_module(module), name)(*args, **kwargs)
    return call


quad = _deferred("scipy.integrate", "quad")
eig_banded = _deferred("scipy.linalg", "eig_banded")
eigvalsh_tridiagonal = _deferred("scipy.linalg", "eigvalsh_tridiagonal")
dgtsv = _deferred("scipy.linalg.lapack", "dgtsv")
