"""A fresh import leaves scipy.integrate and scipy.linalg unloaded; the
Mellin route and the lattice oracle load them on their first call and
return the same values as in a process that has them loaded already."""

import json
import os
import subprocess
import sys

import kinkzeta
from kinkzeta import oracle
from kinkzeta.resolvent import CaseTag, build_resolvent
from kinkzeta.zetareg import erf_heat_trace, mellin_zeta

DEFERRED = ["scipy.integrate", "scipy.optimize", "scipy.linalg"]

CHILD = f"""
import json, sys
import kinkzeta, kinkzeta.cli
loaded = [m for m in {DEFERRED!r} if m in sys.modules]
from kinkzeta import oracle
from kinkzeta.resolvent import CaseTag, build_resolvent
from kinkzeta.zetareg import erf_heat_trace, mellin_zeta
z = mellin_zeta(erf_heat_trace(1.0), 0.25)
rp = build_resolvent(CaseTag.D, 1.0, k=0.5)
spec = oracle.LatticeSpec(0.0, rp.period, 64, "periodic", rp.u_of_x)
edges = oracle.band_edges_lattice(spec, len(rp.roots))
print(json.dumps({{"loaded": loaded,
                   "after": [m for m in {DEFERRED!r} if m in sys.modules],
                   "zeta": [z.value.real.hex(), z.value.imag.hex(),
                            z.err_estimate.hex()],
                   "edges": [float(e).hex() for e in edges]}}))
"""


def test_fresh_import_defers_integrate_and_linalg():
    src = os.path.dirname(os.path.dirname(kinkzeta.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", CHILD], env=env, check=True,
                         capture_output=True, text=True).stdout
    child = json.loads(out)
    assert child["loaded"] == []
    assert child["after"] == DEFERRED

    z = mellin_zeta(erf_heat_trace(1.0), 0.25)
    assert child["zeta"] == [z.value.real.hex(), z.value.imag.hex(),
                             z.err_estimate.hex()]
    rp = build_resolvent(CaseTag.D, 1.0, k=0.5)
    spec = oracle.LatticeSpec(0.0, rp.period, 64, "periodic", rp.u_of_x)
    edges = oracle.band_edges_lattice(spec, len(rp.roots))
    assert child["edges"] == [float(e).hex() for e in edges]
