"""Every scipy function the package calls, loaded on its first call.

A ``kinkzeta`` CLI table takes a few milliseconds of numerics, and a
fresh process spends most of its wall time importing, so importing the
package loads numpy and no scipy module: each name below is bound when
the package is imported, and its subpackage is imported the first time
it is called.  A module takes the name from here, so a caller can
replace it there (a test's fake, a tracer's span).  The ``solution``,
``energy``, ``resolvent``, ``correction`` and ``figure-z`` commands call
none of them and never load scipy; nor do ``heattrace`` and the contour
``zeta`` (cases b, c, d, nahm) at real s, whose product weights and
heat-kernel constants are built with numpy and exact arithmetic.
CONVENTIONS item 24 gives the policy and the measured start-up times.
"""

from __future__ import annotations

import importlib
from typing import Callable

__all__: list[str] = []


def _deferred(module: str, name: str) -> Callable:
    """module.name, imported when the returned function is first called
    and kept for the later calls."""
    fn = None

    def call(*args, **kwargs):
        nonlocal fn
        if fn is None:
            fn = getattr(importlib.import_module(module), name)
        return fn(*args, **kwargs)
    return call


quad = _deferred("scipy.integrate", "quad")
eig_banded = _deferred("scipy.linalg", "eig_banded")
eigvalsh_tridiagonal = _deferred("scipy.linalg", "eigvalsh_tridiagonal")
dgtsv = _deferred("scipy.linalg.lapack", "dgtsv")
gamma = _deferred("scipy.special", "gamma")
rgamma = _deferred("scipy.special", "rgamma")
ellipkinc = _deferred("scipy.special", "ellipkinc")
