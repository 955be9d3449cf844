"""Command-line front end: tables and plot-ready data for every stage.

Subcommands: solution, energy, resolvent, heattrace, zeta, correction,
figure-z, oracle.  Output is CSV (comma separated, '.' decimal, header
row, 16 significant digits) or JSON mirroring the columns as arrays.
Exit codes: 0 ok, 2 bad input, 3 cross-method disagreement, 4 numerical
failure.  Output is byte-identical for identical invocations.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import models, oracle, resolvent, zetareg
from .errors import (DomainError, EnergyDivergenceError, KinkZetaError,
                     UnsupportedFamilyError)

__all__ = ["build_parser", "main"]

_POLE_MARK = "pole"


def _fmt(v) -> str:
    if type(v) is float:   # the common cell, first; NaN prints as "nan"
        return f"{v:.15e}"
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, int):
        return str(v)
    return f"{float(v):.15e}"


def _emit(columns: list[str], rows: list[list], args) -> None:
    if args.format == "json":
        data = {c: [] for c in columns}
        for row in rows:
            for c, v in zip(columns, row):
                if isinstance(v, (str, int)) or v is None:
                    data[c].append(v)
                else:
                    data[c].append(float(v))
        text = json.dumps({"columns": columns, "data": data}, indent=1,
                          sort_keys=False)
        text += "\n"
    else:
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(map(_fmt, row)))
        text = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:   # a missing directory, a directory, no permission
        raise DomainError(f"cannot write --out {args.out!r}: {exc.strerror}") from None


def _solution_from_args(args) -> models.ClassicalSolution:
    fam = models.Family(args.family)
    if fam is models.Family.NAHM:
        return models.nahm_solution(models.ModelSpec(family=fam, w=args.w),
                                    sign=args.sign)
    spec = models.ModelSpec(family=fam, m=args.m, g=args.g)
    if args.kink:
        return models.kink_solution(spec, sign=args.sign)
    return models.periodic_solution(spec, k=args.k, W=args.W, sign=args.sign)


def _check_n(n: int) -> None:
    if n < 2:
        raise DomainError(f"--n must be at least 2, got {n}")


def _cmd_solution(args) -> int:
    _check_n(args.n)
    if (args.x_min is None) != (args.x_max is None):
        raise DomainError("supply both --x-min and --x-max, or neither")
    # the grid's span times n - 1 bounds every product the grid forms
    if args.x_min is not None and not math.isfinite((args.x_max - args.x_min)
                                                    * (args.n - 1)):
        raise DomainError("--x-min and --x-max must be finite, and "
                          "(x_max - x_min) * (n - 1) too")
    sol = _solution_from_args(args)
    if args.x_min is None:
        if sol.kind is models.SolutionKind.PERIODIC:
            x_min, x_max = 0.0, sol.period
        else:
            x_min, x_max = -10.0 / sol.b_or_sigma, 10.0 / sol.b_or_sigma
    else:
        x_min, x_max = args.x_min, args.x_max
    xs = x_min + (x_max - x_min) * np.arange(args.n) / (args.n - 1)
    phi, dphi, u = sol.fields(xs)
    pole = sol.near_pole(xs)
    e = 0.5 * dphi ** 2
    e[~pole] += models.potential_v(sol.spec, phi[~pole])
    rows = [[x, _POLE_MARK, _POLE_MARK, _POLE_MARK] if p else [x, f, v, d]
            for x, f, v, d, p in zip(xs.tolist(), phi.tolist(), u.tolist(),
                                     e.tolist(), pole.tolist())]
    _emit(["x", "phi", "u", "e"], rows, args)
    return 0


def _cmd_energy(args) -> int:
    sol = _solution_from_args(args)
    rep = models.energy_report(sol)
    _emit(["family", "kind", "closed_form", "quadrature", "raw_integral"],
          [[sol.spec.family.value, sol.kind.value, rep["closed_form"],
            rep["quadrature"], rep["raw_integral"]]], args)
    return 0


def _resolvent_from_args(args) -> resolvent.ResolventPolynomial:
    return resolvent.build_resolvent(resolvent.CaseTag(args.case), args.b,
                                     k=args.k)


def _cmd_resolvent(args) -> int:
    rp = _resolvent_from_args(args)
    rows = []
    for j, c in enumerate(rp.q_coeffs):
        rows.append([f"q{j}", c])
    for i, row in enumerate(rp.p_rows):
        for j, c in enumerate(row):
            rows.append([f"P{i}_z{j}", c])
    for n, r in enumerate(rp.roots):
        rows.append([f"root{n}", r])
    i0, iz, izz = rp.moments
    rows.append(["period", rp.period])
    rows.append(["I0", i0])
    rows.append(["Iz", iz])
    rows.append(["Izz", izz])
    _emit(["name", "value"], rows, args)
    return 0


def _parse_grid(raw: str, kind=float) -> list:
    try:
        return [kind(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise DomainError(f"bad grid value in {raw!r}: {exc}") from None


def _cmd_heattrace(args) -> int:
    rp = _resolvent_from_args(args)
    rows = []
    per_len = 1.0 if rp.is_kink else 1.0 / rp.period
    for t in _parse_grid(args.t):
        inv = resolvent.invert_laplace_gamma(rp, t)
        closed = (math.erf(rp.b * math.sqrt(t))
                  if rp.case is resolvent.CaseTag.A else None)
        rows.append([t, closed, inv.total, inv.total * per_len,
                     inv.bound_part, inv.continuum_stable,
                     inv.continuum_unstable, int(inv.unstable_sector)])
    _emit(["t", "closed_form", "total", "total_per_length", "bound",
           "stable", "unstable", "unstable_sector"], rows, args)
    return 0


def _cmd_zeta(args) -> int:
    if not 0.0 <= args.method_tol < math.inf:
        raise DomainError("--method-tol must be finite and >= 0, "
                          f"got {args.method_tol}")
    rp = _resolvent_from_args(args)
    is_a = rp.case is resolvent.CaseTag.A
    nahm = rp.case is resolvent.CaseTag.NAHM
    ki, ei = models._KE_IMAG
    rows = []
    spreads: dict[float, list[complex]] = {}
    for sv in _parse_grid(args.s):
        # the contour first: its strip check, Re s > -1/2, precedes the poles
        # of the closed form and the Mellin route (s = -1/2 - n)
        contour = zetareg.zeta_contour(rp, sv)
        vals = []
        if is_a:
            vals.append(("closed_form", zetareg.zeta_d_kink(sv, rp.b, 1), 0.0))
            ev = zetareg.mellin_zeta(zetareg.kink_trace_d(rp.b, 1), sv)
            vals.append(("mellin_numeric", ev.value, ev.err_estimate))
        vals.append(("contour", contour.value, contour.err_estimate))
        spreads[sv] = [v for _, v, _ in vals]
        for method, v, err in vals:
            rows.append([sv, v.real, v.imag, method, err,
                         2.0 * ki if nahm else None,
                         ki - ei if nahm else None])
    _emit(["s", "re", "im", "method", "err", "meta_2Ki", "meta_Ki_minus_Ei"],
          rows, args)
    # the routes' spread at each s, relative to max(1, |zeta|)
    worst = max((max(abs(a - b) for a in vs for b in vs)
                 / max(1.0, max(abs(v) for v in vs))
                 for vs in spreads.values() if len(vs) > 1), default=0.0)
    if worst > args.method_tol:
        print(f"method disagreement {worst:.3e} exceeds {args.method_tol:.3e} "
              "(relative to max(1, |zeta|))", file=sys.stderr)
        return 3
    return 0


def _cmd_correction(args) -> int:
    dz = zetareg.derivative_at_zero(args.m, args.d)
    ds = zetareg.quantum_correction(args.m, args.d, hbar=args.hbar,
                                    half_convention=args.half_convention)
    _emit(["m", "d", "hbar", "dzeta_ds_at_0", "delta_s", "half_convention"],
          [[args.m, args.d, args.hbar, dz, ds, int(args.half_convention)]],
          args)
    return 0


def _cmd_figure_z(args) -> int:
    _check_n(args.n)
    ds = _parse_grid(args.d, int)
    rows = []
    for i in range(args.n):
        m = args.m_min + (args.m_max - args.m_min) * i / (args.n - 1)
        for d in ds:
            dz = zetareg.derivative_at_zero(m, d)
            rows.append([m, d, dz, zetareg.quantum_correction(m, d)])
    _emit(["m", "d", "dzeta_ds_at_0", "correction"], rows, args)
    return 0


def _cmd_oracle(args) -> int:
    rp = _resolvent_from_args(args)
    u = rp.u_of_x
    if args.mode == "edges":
        if rp.is_kink:
            raise DomainError("edges mode needs a periodic case (b, d, nahm)")
        spec = oracle.LatticeSpec(0.0, rp.period, args.n, "periodic", u)
        edges = oracle.band_edges_lattice(spec, len(rp.roots))
        rows = [[i, e, 0.0 - r] for i, (e, r) in   # 0.0 - r: no -0.0
                enumerate(zip(edges, sorted(rp.roots, reverse=True)))]
        _emit(["index", "lattice_edge", "predicted_edge"], rows, args)
        return 0
    if args.mode == "trace" and not rp.is_kink:
        raise DomainError("trace mode needs a kink case (a or c)")
    box = 20.0 / rp.b
    spec = oracle.LatticeSpec(-box, box, args.n, "dirichlet", u)
    if args.mode == "eigen":
        lam = oracle.eigenvalues(spec, count=args.count)
        _emit(["index", "lambda"], [[i, v] for i, v in enumerate(lam)], args)
        return 0
    # mode == trace: vacuum-subtracted box trace for the kink cases
    rows = [[t, oracle.relative_heat_trace(spec, rp.nu, t)]
            for t in _parse_grid(args.t)]
    _emit(["t", "relative_trace"], rows, args)
    return 0


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=[f.value for f in models.Family])
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--g", type=float, default=1.0)
    p.add_argument("--w", type=float, default=1.0)
    p.add_argument("--kink", action="store_true")
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--W", type=float, default=None)
    p.add_argument("--sign", type=int, default=1, choices=[1, -1])


def _add_case_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--case", required=True,
                   choices=[c.value for c in resolvent.CaseTag])
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--k", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kinkzeta",
        description="static solutions, diagonal resolvents and spectral "
                    "zeta functions of the GL / SG / Nahm scalar models")
    ap.add_argument("--format", choices=["csv", "json"], default="csv")
    ap.add_argument("--out", default="-")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solution", help="sample x, phi, u, energy density")
    _add_model_flags(p)
    p.add_argument("--x-min", type=float, default=None)
    p.add_argument("--x-max", type=float, default=None)
    p.add_argument("--n", type=int, default=201)
    p.set_defaults(func=_cmd_solution)

    p = sub.add_parser("energy", help="classical energy report")
    _add_model_flags(p)
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser("resolvent", help="dump P, Q, roots and moments")
    _add_case_flags(p)
    p.set_defaults(func=_cmd_resolvent)

    p = sub.add_parser("heattrace", help="relative/periodic heat trace")
    _add_case_flags(p)
    p.add_argument("--t", default="0.5,1,2")
    p.set_defaults(func=_cmd_heattrace)

    p = sub.add_parser("zeta", help="zeta values by all applicable methods")
    _add_case_flags(p)
    p.add_argument("--s", default="0.1,0.2,0.3,0.4")
    p.add_argument("--method-tol", type=float, default=1e-5,
                   help="largest spread of the routes at one s, relative "
                        "to max(1, |zeta|)")
    p.set_defaults(func=_cmd_zeta)

    p = sub.add_parser("correction", help="one-loop action correction")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--d", type=int, default=1, choices=[1, 2, 3, 4])
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--half-convention", action="store_true",
                   help="apply the alternative normalization that halves "
                        "the correction")
    p.set_defaults(func=_cmd_correction)

    p = sub.add_parser("figure-z",
                       help="zeta'(0) of the kink tower versus mass")
    p.add_argument("--m-min", type=float, default=0.2)
    p.add_argument("--m-max", type=float, default=3.0)
    p.add_argument("--n", type=int, default=41)
    p.add_argument("--d", default="1,2,3")
    p.set_defaults(func=_cmd_figure_z)

    p = sub.add_parser("oracle", help="lattice spectral checks")
    _add_case_flags(p)
    p.add_argument("--mode", choices=["edges", "eigen", "trace"],
                   default="edges")
    p.add_argument("--n", type=int, default=900)
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--t", default="0.5,1,2")
    p.set_defaults(func=_cmd_oracle)
    return ap


# parse_args keeps no state between calls, so one parser serves them all
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (DomainError, UnsupportedFamilyError, EnergyDivergenceError) as exc:
        # the input is at fault: outside the domain, a family without the
        # operation, or an unbounded solution whose energy diverges
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KinkZetaError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
