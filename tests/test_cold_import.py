"""A fresh import loads no scipy module.  The commands that need none
(solution, energy, resolvent, correction, figure-z) load none and print
their golden stdout, and so do the contour zeta (at real and complex s),
the heat trace and the periodic lattice oracle; the routes that need
scipy (the Mellin zeta, the oracle's Dirichlet box) load their
subpackages on the first call and return the same bits there as in a
process that has them loaded already."""

import json
import os
import subprocess
import sys

import numpy as np

import kinkzeta
from kinkzeta import oracle
from kinkzeta.resolvent import CaseTag, build_resolvent, invert_laplace_gamma
from kinkzeta.zetareg import erf_heat_trace, mellin_zeta, zeta_contour

from golden_cli import TABLE

ROWS = json.loads(TABLE.read_text())
LIGHT = ["solution", "energy", "resolvent", "correction", "figure-z"]

PRELUDE = """
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = kinkzeta.cli.main(argv)
    return [code, buf.getvalue()]

import numpy as np
import kinkzeta, kinkzeta.cli
report = {"import": loaded()}
"""


def fresh(body: str, *args: str) -> dict:
    """The report dict a fresh interpreter prints after PRELUDE and body."""
    src = os.path.dirname(os.path.dirname(kinkzeta.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = PRELUDE + body + "\nprint(json.dumps(report))\n"
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def cell(*argv: str) -> dict:
    return next(r for r in ROWS if r["argv"] == list(argv))


def test_light_commands_load_no_scipy():
    rows = [r for r in ROWS if any(c in r["argv"] for c in LIGHT)]
    assert {c for r in rows for c in LIGHT if c in r["argv"]} == set(LIGHT)
    child = fresh("""
report["cells"] = [run(argv) + [loaded()] for argv in json.loads(sys.argv[1])]
""", json.dumps([r["argv"] for r in rows]))
    assert child["import"] == []
    for row, (code, out, mods) in zip(rows, child["cells"]):
        assert (code, out, mods) == (row["code"], row["stdout"], []), row["argv"]


def test_first_contour_zeta_and_heat_trace_match_a_warm_process():
    # the product weights and the heat-kernel constants are built on the
    # first call (t = 0.1 takes the heat-kernel series, t = 1 the band
    # integrals), with no scipy module at real s; the values come first,
    # then the golden invocation of the same route, then the contour zeta
    # of the other periodic and kink cases.  A complex s loads none
    # either: its moments take the Gamma ratio from specfun
    zeta_argv = ["zeta", "--case", "b", "--k", "0.5", "--s", "0.3,-0.2"]
    heat_argv = ["heattrace", "--case", "d", "--k", "0.7", "--t", "0.25,1,2"]
    zeta = fresh("""
from kinkzeta.resolvent import CaseTag, build_resolvent
from kinkzeta.zetareg import zeta_contour
z = zeta_contour(build_resolvent(CaseTag.B, 1.0, k=0.5), 0.3)
report["bits"] = [z.value.real.hex(), z.value.imag.hex(), z.err_estimate.hex()]
report["cell"] = run(json.loads(sys.argv[1]))
for case, k in (("c", None), ("d", 0.5), ("nahm", None)):
    zeta_contour(build_resolvent(CaseTag(case), 1.0, k=k), 0.25)
report["real_s"] = loaded()
zeta_contour(build_resolvent(CaseTag.B, 1.0, k=0.5), 0.3 + 0.2j)
report["complex_s"] = loaded()
""", json.dumps(zeta_argv))
    heat = fresh("""
from kinkzeta.resolvent import CaseTag, build_resolvent, invert_laplace_gamma
rp = build_resolvent(CaseTag.D, 1.2, k=0.7)
report["bits"] = [float(invert_laplace_gamma(rp, t).total).hex() for t in (0.1, 1.0)]
report["real_s"] = loaded()
report["cell"] = run(json.loads(sys.argv[1]))
""", json.dumps(heat_argv))

    z = zeta_contour(build_resolvent(CaseTag.B, 1.0, k=0.5), 0.3)
    assert zeta["bits"] == [z.value.real.hex(), z.value.imag.hex(),
                            z.err_estimate.hex()]
    rp = build_resolvent(CaseTag.D, 1.2, k=0.7)
    assert heat["bits"] == [float(invert_laplace_gamma(rp, t).total).hex()
                            for t in (0.1, 1.0)]
    for child, argv in ((zeta, zeta_argv), (heat, heat_argv)):
        assert child["import"] == child["real_s"] == []
        row = cell(*argv)
        assert child["cell"] == [row["code"], row["stdout"]]
    assert zeta["complex_s"] == []


def test_fresh_import_defers_integrate_and_linalg():
    # the periodic oracle (numpy's FFT and eigvalsh) and `oracle --mode
    # edges` load no scipy module; the Dirichlet box loads scipy.linalg,
    # the Mellin zeta scipy.integrate
    deferred = ["scipy.integrate", "scipy.linalg", "scipy.optimize"]
    child = fresh(f"""
from kinkzeta import oracle
from kinkzeta.resolvent import CaseTag, build_resolvent
from kinkzeta.zetareg import erf_heat_trace, mellin_zeta
rp = build_resolvent(CaseTag.D, 1.0, k=0.5)
spec = oracle.LatticeSpec(0.0, rp.period, 64, "periodic", rp.u_of_x)
edges = oracle.band_edges_lattice(spec, len(rp.roots))
trace = oracle.lattice_heat_trace(spec, 1.0)
report["cli"] = run(["oracle", "--case", "b", "--k", "0.5", "--mode", "edges"])
report["periodic"] = loaded()
z = mellin_zeta(erf_heat_trace(1.0), 0.25)
box = oracle.LatticeSpec(-20.0, 20.0, 400, "dirichlet",
                         lambda x: 1.0 - 2.0 / np.cosh(x) ** 2)
lam = oracle.eigenvalues(box, count=2)
report["after"] = [m for m in {deferred!r} if m in sys.modules]
report["zeta"] = [z.value.real.hex(), z.value.imag.hex(), z.err_estimate.hex()]
report["values"] = [float(e).hex() for e in [*edges, trace, *lam]]
""")
    assert child["import"] == child["periodic"] == []
    assert child["cli"][0] == 0 and child["cli"][1].startswith("index,")
    assert child["after"] == deferred

    z = mellin_zeta(erf_heat_trace(1.0), 0.25)
    assert child["zeta"] == [z.value.real.hex(), z.value.imag.hex(),
                             z.err_estimate.hex()]
    rp = build_resolvent(CaseTag.D, 1.0, k=0.5)
    spec = oracle.LatticeSpec(0.0, rp.period, 64, "periodic", rp.u_of_x)
    edges = oracle.band_edges_lattice(spec, len(rp.roots))
    trace = oracle.lattice_heat_trace(spec, 1.0)
    box = oracle.LatticeSpec(-20.0, 20.0, 400, "dirichlet",
                             lambda x: 1.0 - 2.0 / np.cosh(x) ** 2)
    lam = oracle.eigenvalues(box, count=2)
    assert child["values"] == [float(e).hex() for e in [*edges, trace, *lam]]
