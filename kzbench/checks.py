"""Checks of kinkzeta outputs against the mpmath reference.

Each check takes an operation's result and the inputs that produced it,
compares the result with a value computed apart from kinkzeta (or with a
property the method must have) and returns the number of correct digits,
-log10 of the worst error relative to max(|reference|, scale), or None
for a check that only passes or fails.  A result outside its tolerance
raises CheckFailed.  This module is imported only after the timed phase,
so mpmath never counts in set-up or in timings.
"""

from __future__ import annotations

import json
import math

import mpmath as mp

import pools
import reference as ref

mp.mp.dps = ref.DPS

# Tolerances, as a share of max(|reference|, scale).
ZETA_CONTOUR_TOL = 1e-4   # periodic contour values; the worst seen is 1e-5
CLOSED_TOL = 1e-9         # closed forms, Mellin route, kink contour
TRACE_TOL = 1e-8          # Laplace inversion of the heat trace
LATTICE_TOL = 2e-3        # lattice oracle gate (band edges, bound states)
LATTICE_TRACE_TOL = 5e-3  # lattice heat trace against the band integrals
TABLE_TOL = 1e-9          # CLI tables of solutions, energies, zeta'(0)
ROOT_TOL = 1e-7           # numerically found roots of Q (double roots)
LAME_TOL = 1e-10          # Lame Green diagonal against the resolvent

_TABLE = None


class CheckFailed(Exception):
    pass


def table() -> dict:
    global _TABLE
    if _TABLE is None:
        _TABLE = json.loads(ref.TABLE.read_text())
    return _TABLE


def digits(err: float) -> float:
    return -math.log10(max(err, 1e-17))


def _rel(got, want, scale=1.0) -> float:
    want_c = complex(want)
    return abs(complex(got) - want_c) / max(abs(want_c), scale)


def _worst(pairs, tol, what, scale=1.0) -> float:
    """Largest relative error over (got, want) pairs, checked against tol."""
    err = 0.0
    for got, want in pairs:
        e = _rel(got, want, scale)
        if not e <= tol:   # also catches nan
            raise CheckFailed(f"{what}: got {got!r}, want {complex(want)!r}")
        err = max(err, e)
    return digits(err)


# ---------------------------------------------------------------------------
# zeta-sweep
# ---------------------------------------------------------------------------

def periodic_zeta(value, case, k, s):
    if s == 0.0:
        want = 0.0   # states per period equal the free ones
    else:
        re, im = table()["zeta"][f"{pools.case_key(case, k)}|{s:g}"]
        want = complex(re, im)
    return _worst([(value, want)], ZETA_CONTOUR_TOL, f"zeta {case} k={k} s={s}")


def kink_zeta(value, case, b, s):
    want = ref.zeta_a(s, b) if case == "a" else ref.zeta_c(s, b)
    return _worst([(value, want)], CLOSED_TOL, f"zeta {case} b={b} s={s}")


# ---------------------------------------------------------------------------
# lattice-gate
# ---------------------------------------------------------------------------

def lattice_edges(edges, case, k, b):
    want = [float(e) for e in ref.band_edges(case, k, b)]
    if len(edges) != len(want):
        raise CheckFailed(f"{len(edges)} edges, want {len(want)}")
    return _worst(zip(edges, want), LATTICE_TOL, f"edges {case} k={k}",
                  scale=b * b)


def kink_bound_states(lam, case, b):
    """A: one bound state at 0, continuum from b^2; C: bound states 0 and
    3 b^2, continuum from 4 b^2 (box states sit just above the edge)."""
    b2 = b * b
    bound = [0.0] if case == "a" else [0.0, 3.0 * b2]
    edge = b2 if case == "a" else 4.0 * b2
    nxt = lam[len(bound)]
    if nxt < edge * (1.0 - LATTICE_TOL):
        raise CheckFailed(f"extra bound state {nxt} below {edge}")
    return _worst(zip(lam[:len(bound)], bound), LATTICE_TOL,
                  f"bound states {case}", scale=b2)


def periodic_trace(value, case, k, t, tol):
    want = table()["trace"][f"{pools.case_key(case, k)}|{t:g}"]
    return _worst([(value, want)], tol, f"trace {case} k={k} t={t}")


def lattice_trace(value, case, k, t):
    return periodic_trace(value, case, k, t, LATTICE_TRACE_TOL)


# ---------------------------------------------------------------------------
# pointwise-tables: CLI output
# ---------------------------------------------------------------------------

def _csv(out) -> list[list[str]]:
    rc, text = out
    if rc != 0:
        raise CheckFailed(f"exit code {rc}")
    lines = text.splitlines()
    return [line.split(",") for line in lines[1:]]


def cli_solution(out, family, kind, m, g, k, w):
    pairs, poles = [], 0
    for x, *cells in _csv(out):
        x = float(x)
        near_pole = (family == "nahm"
                     and ref.nahm_pole_distance(w, x) < 1e-3)
        if cells == ["pole"] * 3:
            if not near_pole:
                raise CheckFailed(f"pole row at x={x} away from any pole")
            poles += 1
            continue
        if near_pole:
            raise CheckFailed(f"row at x={x} within the pole guard band")
        want = ref.solution_row(family, kind, m, g, k, w, x)
        pairs.extend(zip(map(float, cells), want))
    if family == "nahm" and poles == 0:
        raise CheckFailed("Nahm table over one period marks no pole row")
    return _worst(pairs, TABLE_TOL, f"solution {family} {kind}")


def cli_energy(out, family, kind, m, g, k):
    (row,) = _csv(out)
    fam, knd, closed, quad, raw = row
    if (fam, knd) != (family, kind):
        raise CheckFailed(f"row {fam} {knd}")
    if family == "sg":
        want = ref.sg_energy(m, g, None if kind == "kink" else k)
        pairs = [(float(closed), want), (float(quad), want),
                 (float(raw) * float(ref.sg_raw_to_conventional(m)), want)]
    else:
        if closed != "":
            raise CheckFailed("GL energies have no closed form")
        want = ref.gl_periodic_energy(m, g, k)
        pairs = [(float(quad), want), (float(raw), want)]
    return _worst(pairs, TABLE_TOL, f"energy {family} {kind}")


def cli_resolvent(out, case, b, k):
    vals = {name: float(v) for name, v in _csv(out)}
    b2 = mp.mpf(b) ** 2
    if case in ("a", "c"):
        roots = [-b2, 0, 0] if case == "a" else [-4 * b2, -3 * b2, -3 * b2, 0, 0]
        if (vals["period"], vals["I0"]) != (math.inf, math.inf):
            raise CheckFailed("kink period and I0 must be infinite")
        scalars = [(vals["Iz"], 2 / mp.mpf(b)), (vals["Izz"], 4 / (3 * mp.mpf(b)))]
    else:
        roots = sorted(-e for e in ref.band_edges(case, k, b))
        i0, iz, izz = ref.period_moments(case, k, b)
        scalars = [(vals["period"], i0), (vals["I0"], i0), (vals["Iz"], iz)]
        if case != "b":   # P of case B has no z^2 column; its Izz is printed as 0
            scalars.append((vals["Izz"], izz))
    got_roots = [vals[f"root{i}"] for i in range(len(roots))]
    # Q of a kink has double roots (at 0, and at -3 b^2 for C), each reported
    # as one value twice; a split pair loses the bound state it carries
    for i in range(len(roots) - 1):
        if roots[i] == roots[i + 1] and got_roots[i] != got_roots[i + 1]:
            raise CheckFailed(f"double root of {case} split: {got_roots[i]!r}, "
                              f"{got_roots[i + 1]!r}")
    # Q(p) = prod (p - r): ascending coefficients from the analytic roots
    q = [mp.mpf(1)]
    for r in roots:
        q = [(q[i - 1] if i > 0 else 0) - r * (q[i] if i < len(q) else 0)
             for i in range(len(q) + 1)]
    got_q = [vals[f"q{j}"] for j in range(len(q))]
    scale = float(b2)
    d = min(_worst(zip(got_roots, roots), ROOT_TOL, f"roots {case}", scale),
            _worst(scalars, TABLE_TOL, f"moments {case}"))
    qscale = [scale ** (len(q) - 1 - j) for j in range(len(q))]
    for j, (got, want) in enumerate(zip(got_q, q)):
        d = min(d, _worst([(got, want)], TABLE_TOL, f"q{j} {case}", qscale[j]))
    return d


def trace_value(case, b, k, t):
    if case == "a":
        return ref.trace_a(t, b)
    if case == "c":
        return ref.trace_c(t, b)
    return table()["trace"][f"{pools.case_key(case, k)}|{t:g}"]


def cli_heattrace(out, case, b, k):
    kink = case in ("a", "c")
    period = None if kink else ref.period_moments(case, k, b)[0]
    pairs = []
    for t, closed, total, per_len, bound, stable, unstable, flag in _csv(out):
        t, total = float(t), float(total)
        want = trace_value(case, b, k, t)
        pairs.append((total, want))
        pairs.append((float(per_len), want if kink else want / period))
        if case == "a":
            pairs.append((float(closed), want))
        elif closed != "":
            raise CheckFailed("closed form reported outside case A")
        parts = float(bound) + float(stable) + float(unstable)
        pairs.append((parts, total))
        # kinks have no band below zero; B, D and NAHM each have one
        has_unstable = float(unstable) != 0.0
        if int(flag) != int(has_unstable) or has_unstable == kink:
            raise CheckFailed(f"unstable sector {flag} for case {case}")
    return _worst(pairs, TRACE_TOL, f"heattrace {case}")


def cli_zeta_a(out, b):
    pairs, methods = [], set()
    for s, re, im, method, *_ in _csv(out):
        pairs.append((complex(float(re), float(im)), ref.zeta_a(float(s), b)))
        methods.add(method)
    if methods != {"closed_form", "mellin_numeric", "contour"}:
        raise CheckFailed(f"methods {sorted(methods)}")
    return _worst(pairs, CLOSED_TOL, "zeta a")


def cli_correction(out):
    ((m, d, hbar, dz, ds, half),) = _csv(out)
    want = ref.kink_tower_dzeta0(float(m), int(d))
    want_ds = -mp.mpf(hbar) / 2 * want * (mp.mpf(1) / 2 if half == "1" else 1)
    return _worst([(float(dz), want), (float(ds), want_ds)], TABLE_TOL,
                  f"correction m={m} d={d}")


def cli_figure_z(out):
    pairs = []
    for m, d, dz, corr in _csv(out):
        want = ref.kink_tower_dzeta0(float(m), int(d))
        pairs += [(float(dz), want), (float(corr), -want / 2)]
    return _worst(pairs, TABLE_TOL, "figure-z")


def cli_oracle_eigen(out, case, b):
    """Pass or fail only: lattice-gate reports the lattice's digits, and
    here they would pin min_correct_digits at the lattice accuracy."""
    lam = [float(v) for _, v in _csv(out)]
    kink_bound_states(lam, case, b)
    return None


def lame(values, k):
    """Lame Green diagonal against the resolvent diagonal at p = 1 - h."""
    return _worst(values, LAME_TOL, f"Lame k={k}")
