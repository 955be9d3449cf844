"""Spans around calls into kinkzeta's layers, recorded from outside.

A Tracer wraps module attributes and class methods of the package for the
length of one traced pass and puts the originals back afterwards; nothing
under src/ changes.  Each span records its name, start, end, parent span
and operation id, and whether an exception left it.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import functools
import json
import time

from kinkzeta import bakerakhiezer, cli, models, oracle, resolvent, specfun, zetareg

# (owner, attribute, span name).  Callers inside the package look these up
# through the module (or the class), so replacing the attribute reaches them.
TARGETS = [
    (resolvent, "build_resolvent", "resolvent.build_resolvent"),
    (resolvent, "invert_laplace_gamma", "resolvent.invert_laplace_gamma"),
    (resolvent, "quad", "resolvent.quad"),
    (resolvent.ResolventPolynomial, "density", "resolvent.density"),
    (zetareg, "zeta_contour", "zetareg.zeta_contour"),
    (zetareg, "mellin_zeta", "zetareg.mellin_zeta"),
    (zetareg, "quad", "zetareg.quad"),
    (zetareg, "derivative_at_zero", "zetareg.derivative_at_zero"),
    (zetareg, "zeta_d_kink", "zetareg.zeta_d_kink"),
    (oracle, "bloch_eigenvalues", "oracle.bloch_eigenvalues"),
    (oracle, "eigenvalues", "oracle.eigenvalues"),
    (specfun, "jacobi_sn_cn_dn", "specfun.jacobi_sn_cn_dn"),
    (specfun, "ellipk", "specfun.ellipk"),
    (specfun, "weierstrass_sigma", "specfun.weierstrass_sigma"),
    (models, "classical_energy", "models.classical_energy"),
    (bakerakhiezer, "green_diag", "bakerakhiezer.green_diag"),
    (bakerakhiezer, "make_lame_solution", "bakerakhiezer.make_lame_solution"),
    (cli, "main", "cli.main"),
]

# Per-layer metrics, in the order of BENCHMARK.json: (name, unit, kind, span)
# kind: "s" total time of the spans, "calls" span count,
# "self" time minus the direct child spans, "errors" spans left by an
# exception, "hit_ratio" from lame_system.cache_info().
METRICS = [
    ("resolvent.density_calls", "count", "calls", "resolvent.density"),
    ("resolvent.density_s", "s", "s", "resolvent.density"),
    ("resolvent.invert_laplace_gamma_s", "s", "s", "resolvent.invert_laplace_gamma"),
    ("resolvent.quad_self_s", "s", "self", "resolvent.quad"),
    ("resolvent.build_resolvent_s", "s", "s", "resolvent.build_resolvent"),
    ("zetareg.zeta_contour_s", "s", "s", "zetareg.zeta_contour"),
    ("zetareg.quad_self_s", "s", "self", "zetareg.quad"),
    ("zetareg.quad_calls", "count", "calls", "zetareg.quad"),
    ("zetareg.zeta_contour_errors", "count", "errors", "zetareg.zeta_contour"),
    ("zetareg.mellin_zeta_s", "s", "s", "zetareg.mellin_zeta"),
    ("zetareg.derivative_at_zero_s", "s", "s", "zetareg.derivative_at_zero"),
    ("zetareg.zeta_d_kink_calls", "count", "calls", "zetareg.zeta_d_kink"),
    ("oracle.bloch_eigenvalues_s", "s", "s", "oracle.bloch_eigenvalues"),
    ("oracle.bloch_eigenvalues_calls", "count", "calls", "oracle.bloch_eigenvalues"),
    ("oracle.eigenvalues_s", "s", "s", "oracle.eigenvalues"),
    ("oracle.u_calls", "count", "calls", "oracle.u"),
    ("oracle.u_s", "s", "s", "oracle.u"),
    ("specfun.jacobi_sn_cn_dn_calls", "count", "calls", "specfun.jacobi_sn_cn_dn"),
    ("specfun.jacobi_sn_cn_dn_s", "s", "s", "specfun.jacobi_sn_cn_dn"),
    ("specfun.ellipk_calls", "count", "calls", "specfun.ellipk"),
    ("specfun.weierstrass_sigma_calls", "count", "calls", "specfun.weierstrass_sigma"),
    ("specfun.weierstrass_sigma_s", "s", "s", "specfun.weierstrass_sigma"),
    ("models.classical_energy_s", "s", "s", "models.classical_energy"),
    ("bakerakhiezer.green_diag_s", "s", "s", "bakerakhiezer.green_diag"),
    ("bakerakhiezer.make_lame_solution_calls", "count", "calls",
     "bakerakhiezer.make_lame_solution"),
    ("bakerakhiezer.lame_system_hit_ratio", "ratio", "hit_ratio", None),
    ("cli.main_s", "s", "s", "cli.main"),
    ("cli.self_s", "s", "self", "cli.main"),
]


class Tracer:
    """Records spans; install() wraps TARGETS, uninstall() restores them."""

    def __init__(self):
        self.spans: list = []   # (name, start, end, parent, op, raised)
        self._stack: list[int] = []
        self._saved: list = []
        self.op = -1
        self.active = False
        self._cache0 = None
        self.cache_delta = (0, 0)

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            raised = True
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = (name, t0, t1, parent, self.op, raised)
        return traced

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(name, orig))
        info = bakerakhiezer.lame_system.cache_info()
        self._cache0 = (info.hits, info.misses)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        info = bakerakhiezer.lame_system.cache_info()
        self.cache_delta = (info.hits - self._cache0[0],
                            info.misses - self._cache0[1])
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def metrics(self) -> dict:
        spans = self.spans
        children = [0.0] * len(spans)
        for name, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                children[parent] += t1 - t0

        by_name: dict[str, list[int]] = {}
        for i, sp in enumerate(spans):
            by_name.setdefault(sp[0], []).append(i)
        out = {}
        for metric, unit, kind, span in METRICS:
            idx = by_name.get(span, [])
            if kind == "calls":
                val = len(idx)
            elif kind == "errors":
                val = sum(1 for i in idx if spans[i][5])
            elif kind == "s":
                val = sum(spans[i][2] - spans[i][1] for i in idx)
            elif kind == "self":
                val = sum(spans[i][2] - spans[i][1] - children[i] for i in idx)
            else:
                hits, misses = self.cache_delta
                val = hits / (hits + misses) if hits + misses else 0.0
            out[metric] = {"value": val, "unit": unit}
        return out

    def dump(self, path) -> None:
        names = sorted({sp[0] for sp in self.spans})
        code = {n: i for i, n in enumerate(names)}
        t_base = self.spans[0][1] if self.spans else 0.0
        rows = [[code[n], round(t0 - t_base, 9), round(t1 - t_base, 9), p, op,
                 int(r)] for n, t0, t1, p, op, r in self.spans]
        path.write_text(json.dumps({
            "fields": ["name", "start_s", "end_s", "parent", "op", "raised"],
            "names": names, "spans": rows}, separators=(",", ":")))
