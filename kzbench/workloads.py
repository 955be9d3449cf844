"""The three workloads: their inputs, the timed operations and the checks.

A workload is a sequence of rounds.  Every round of a workload holds the
same operation classes in the same numbers, so that a run of whole rounds
attempts each class in a fixed proportion; the seed chooses each round's
inputs from the pools and the order of its operations.  Rounds are built
once, in set-up, and cycled.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from kinkzeta import bakerakhiezer, cli, oracle, resolvent, zetareg  # noqa: E402

import pools  # noqa: E402

LATTICE_N = 900          # the CLI default lattice size
HEAT_TRACE_N = 360       # one lattice heat trace (32 Bloch phases) near 1 s
POINTWISE_CYCLE = 8      # distinct pointwise rounds; repeats test byte identity
KINK_S = (-0.45, 0.45)   # kink zeta arguments, inside the strip


@dataclass
class Op:
    """One timed call with the check that verifies its result."""

    cls: str                      # operation class, fixed per round
    key: tuple                    # identity of the input, for repeats
    call: Callable[[], object]
    check: tuple                  # (name in checks, *arguments)
    fault: bool = False           # a named-fault point, expected to fail
    cli: bool = False             # CLI output: repeats must be byte-identical


class Context:
    """Per-run state the operations need: an output path for CLI tables and
    the tracer, when the run is traced."""

    def __init__(self, out_path: Path, tracer=None):
        self.out_path = out_path
        self.tracer = tracer

    def potential(self, rp):
        """The potential callable handed to oracle.LatticeSpec."""
        u = lambda x: rp.u_of_x(x)
        tracer = self.tracer
        return tracer.wrap("oracle.u", u) if tracer and tracer.active else u

    def run_cli(self, argv: list[str]) -> tuple[int, str]:
        path = self.out_path
        path.unlink(missing_ok=True)
        rc = cli.main(["--out", str(path)] + argv)
        text = path.read_text() if path.exists() else ""
        return rc, text


def _uniform(rng, lo, hi):
    return round(rng.uniform(lo, hi), 6)


def _cycled(rng, items, count):
    """count items taken from seed-shuffled copies of the pool, so that every
    item appears once before any appears twice."""
    out = []
    while len(out) < count:
        batch = list(items)
        rng.shuffle(batch)
        out.extend(batch)
    return out[:count]


# ---------------------------------------------------------------------------
# zeta-sweep
# ---------------------------------------------------------------------------

ZETA_CYCLE = 12   # rounds until every periodic (case, k, s) point has run


def _zeta_periodic(case, k, s, fault=False):
    b = 1.0

    def call():
        rp = resolvent.build_resolvent(case, b, k)
        return zetareg.zeta_contour(rp, s).value
    return Op(f"zeta_contour:{case}" + (":fault" if fault else ""),
              ("zeta", case, k, s), call, ("periodic_zeta", case, k, s), fault)


def _zeta_kink(case, b, s):
    def call():
        rp = resolvent.build_resolvent(case, b)
        return zetareg.zeta_contour(rp, s).value
    return Op(f"zeta_contour:{case}", ("zeta", case, b, s), call,
              ("kink_zeta", case, b, s))


def _mellin_a(b, s):
    call = lambda: zetareg.mellin_zeta(zetareg.erf_heat_trace(b), s).value
    return Op("mellin_zeta:a", ("mellin", b, s), call, ("kink_zeta", "a", b, s))


def _closed_a(b, s):
    call = lambda: zetareg.zeta_kink_1d(s, b)
    return Op("zeta_kink_1d:a", ("closed", b, s), call, ("kink_zeta", "a", b, s))


def zeta_sweep_rounds(ctx, rng) -> list[list[Op]]:
    s_pool = [s for s in pools.ZETA_S_POOL if s != 0.0]
    bd = {case: _cycled(rng, [(k, s) for k in pools.K_POOL for s in s_pool],
                        3 * ZETA_CYCLE) for case in ("b", "d")}
    nahm = _cycled(rng, s_pool, 2 * ZETA_CYCLE)
    zero = _cycled(rng, list(pools.periodic_configs()), ZETA_CYCLE)
    rounds = []
    for r in range(ZETA_CYCLE):
        ops = []
        for case in ("b", "d"):
            ops += [_zeta_periodic(case, k, s) for k, s in bd[case][3 * r:3 * r + 3]]
        ops += [_zeta_periodic("nahm", None, s) for s in nahm[2 * r:2 * r + 2]]
        ops.append(_zeta_periodic(*zero[r], 0.0))
        for _ in range(2):
            for make in (partial(_zeta_kink, "a"), partial(_zeta_kink, "c"),
                         _mellin_a, _closed_a):
                ops.append(make(rng.choice(pools.KINK_B_POOL), _uniform(rng, *KINK_S)))
        # named-fault points: fixed inputs, the same in every round
        for case in pools.PERIODIC:
            k = None if case == "nahm" else pools.FAULT_K
            ops += [_zeta_periodic(case, k, s, fault=True) for s in pools.FAULT_S]
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


def zeta_sweep_warmup(ctx) -> Op:
    return _zeta_kink("a", 1.0, 0.25)


# ---------------------------------------------------------------------------
# lattice-gate
# ---------------------------------------------------------------------------

LATTICE_CYCLE = 64   # more rounds than a run reaches; no input repeats


def _edges(ctx, case, k, b):
    def call():
        rp = resolvent.build_resolvent(case, b, k)
        spec = oracle.LatticeSpec(0.0, rp.period, LATTICE_N, "periodic",
                                  ctx.potential(rp))
        return oracle.band_edges_lattice(spec, len(rp.roots))
    return Op(f"band_edges_lattice:{case}", ("edges", case, k, b), call,
              ("lattice_edges", case, k, b))


def _kink_box(ctx, case, b):
    def call():
        rp = resolvent.build_resolvent(case, b)
        box = 20.0 / b
        spec = oracle.LatticeSpec(-box, box, LATTICE_N, "dirichlet",
                                  ctx.potential(rp))
        return oracle.eigenvalues(spec, count=4)
    return Op(f"eigenvalues:{case}", ("eig", case, b), call,
              ("kink_bound_states", case, b))


def _lattice_trace(ctx, case, k, t):
    def call():
        rp = resolvent.build_resolvent(case, 1.0, k)
        spec = oracle.LatticeSpec(0.0, rp.period, HEAT_TRACE_N, "periodic",
                                  ctx.potential(rp))
        return oracle.lattice_heat_trace(spec, t)
    return Op("lattice_heat_trace", ("trace", case, k, t), call,
              ("lattice_trace", case, k, t))


def lattice_gate_rounds(ctx, rng) -> list[list[Op]]:
    n = LATTICE_CYCLE
    ks = {case: _cycled(rng, pools.K_POOL, n) for case in ("b", "d")}
    traces = _cycled(rng, [(c, k, t) for c, k in pools.periodic_configs()
                           for t in pools.TRACE_T_POOL], n)
    rounds = []
    for r in range(n):
        ops = [_edges(ctx, "b", ks["b"][r], _uniform(rng, 0.5, 2.0)),
               _edges(ctx, "d", ks["d"][r], _uniform(rng, 0.5, 2.0)),
               _edges(ctx, "nahm", None, _uniform(rng, 0.5, 2.0)),
               _kink_box(ctx, "a", rng.choice(pools.KINK_B_POOL)),
               _kink_box(ctx, "c", rng.choice(pools.KINK_B_POOL)),
               _lattice_trace(ctx, *traces[r])]
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


def lattice_gate_warmup(ctx) -> Op:
    return _kink_box(ctx, "a", 1.0)


# ---------------------------------------------------------------------------
# pointwise-tables
# ---------------------------------------------------------------------------

def _cli_op(ctx, cls, argv, check, fault=False):
    return Op(f"cli:{cls}", ("cli",) + tuple(argv),
              lambda: ctx.run_cli(argv), check, fault, cli=True)


def _num(v) -> str:
    return repr(float(v))


def _lame(k, pairs):
    def call():
        rp = resolvent.build_resolvent("b", 1.0, k)
        return [(bakerakhiezer.green_diag(x, h, k), rp.green_diag(1.0 - h, x))
                for x, h in pairs]
    return Op("lame:green_diag", ("lame", k, tuple(pairs)), call, ("lame", k))


def _lame_pairs(rng, k):
    """(x, h) with h in a spectral gap of the Lame operator, away from the
    band edges k^2, 1 and 1 + k^2; inside a band the two constructions take
    opposite boundary values, so the identity holds only off the spectrum."""
    k2 = k * k
    out = []
    for j in range(6):
        if j % 2:
            h = 1.0 + k2 * _uniform(rng, 0.1, 0.9)
        else:
            h = k2 - _uniform(rng, 0.05, 1.0)
        out.append((_uniform(rng, 0.0, 3.0), h))
    return out


def pointwise_rounds(ctx, rng) -> list[list[Op]]:
    rounds = []
    u = lambda lo, hi: _uniform(rng, lo, hi)
    for r in range(POINTWISE_CYCLE):
        ops = []
        m, g = u(0.8, 2.0), u(0.5, 2.0)
        ops.append(_cli_op(ctx, "solution:gl:kink",
                           ["solution", "--family", "gl", "--m", _num(m), "--g", _num(g),
                            "--kink"],
                           ("cli_solution", "gl", "kink", m, g, None, None)))
        for fam in ("gl", "sg"):
            m, g, k = u(0.8, 2.0), u(0.5, 2.0), u(0.2, 0.95)
            ops.append(_cli_op(ctx, f"solution:{fam}:periodic",
                               ["solution", "--family", fam, "--m", _num(m), "--g", _num(g),
                                "--k", _num(k)],
                               ("cli_solution", fam, "periodic", m, g, k, None)))
        w = u(0.5, 2.0)
        ops.append(_cli_op(ctx, "solution:nahm",
                           ["solution", "--family", "nahm", "--w", _num(w)],
                           ("cli_solution", "nahm", "periodic", None, None, None, w)))
        m, g = u(0.8, 2.0), u(0.5, 2.0)
        ops.append(_cli_op(ctx, "energy:sg:kink",
                           ["energy", "--family", "sg", "--m", _num(m), "--g", _num(g),
                            "--kink"], ("cli_energy", "sg", "kink", m, g, None)))
        for fam in ("sg", "gl"):
            m, g, k = u(0.8, 2.0), u(0.5, 2.0), u(0.2, 0.95)
            ops.append(_cli_op(ctx, f"energy:{fam}:periodic",
                               ["energy", "--family", fam, "--m", _num(m), "--g", _num(g),
                                "--k", _num(k)],
                               ("cli_energy", fam, "periodic", m, g, k)))
        case = ("a", "b", "c", "d", "nahm")[r % 5]
        b = rng.choice(pools.KINK_B_POOL) if case in ("a", "c") else u(0.5, 2.0)
        k = u(0.2, 0.95) if case in ("b", "d") else None
        argv = ["resolvent", "--case", case, "--b", _num(b)]
        ops.append(_cli_op(ctx, "resolvent", argv + (["--k", _num(k)] if k else []),
                           ("cli_resolvent", case, b, k)))
        # named fault: the same input in every round.  The case-C zeta and
        # heat trace at this scale also go wrong, but take 1 s and 0.3 s
        # where a sound scale takes 9 ms and 8 ms, so the cheap root
        # table carries the fault and the round keeps its short calls.
        b = pools.FAULT_C_B
        ops.append(_cli_op(ctx, "resolvent:fault",
                           ["resolvent", "--case", "c", "--b", _num(b)],
                           ("cli_resolvent", "c", b, None), fault=True))
        for case in ("a", "c", "b", "d", "nahm"):
            ts = sorted(rng.sample(pools.TRACE_T_POOL, 3))
            if case in ("a", "c"):
                b, k = rng.choice(pools.KINK_B_POOL), None
            else:
                b, k = 1.0, (rng.choice(pools.K_POOL) if case != "nahm" else None)
            argv = ["heattrace", "--case", case, "--b", _num(b),
                    "--t", ",".join(f"{t:g}" for t in ts)]
            ops.append(_cli_op(ctx, f"heattrace:{case}",
                               argv + (["--k", _num(k)] if k else []),
                               ("cli_heattrace", case, b, k)))
        b = rng.choice(pools.KINK_B_POOL)
        svals = ",".join(_num(u(*KINK_S)) for _ in range(3))
        ops.append(_cli_op(ctx, "zeta:a",
                           ["zeta", "--case", "a", "--b", _num(b), f"--s={svals}"],
                           ("cli_zeta_a", b)))
        argv = ["correction", "--m", _num(u(0.3, 3.0)), "--d", str(rng.randint(1, 4)),
                "--hbar", _num(u(0.5, 2.0))]
        if rng.random() < 0.5:
            argv.append("--half-convention")
        ops.append(_cli_op(ctx, "correction", argv, ("cli_correction",)))
        ops.append(_cli_op(ctx, "figure-z",
                           ["figure-z", "--m-min", _num(u(0.2, 0.6)),
                            "--m-max", _num(u(2.0, 3.0))], ("cli_figure_z",)))
        case, b = ("a", "c")[r % 2], rng.choice(pools.KINK_B_POOL)
        ops.append(_cli_op(ctx, "oracle:eigen",
                           ["oracle", "--case", case, "--b", _num(b), "--mode", "eigen"],
                           ("cli_oracle_eigen", case, b)))
        k = u(0.2, 0.9)
        ops.append(_lame(k, _lame_pairs(rng, k)))
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


def pointwise_warmup(ctx) -> Op:
    argv = ["solution", "--family", "gl", "--m", "1.0", "--g", "1.0", "--kink"]
    return _cli_op(ctx, "solution:gl:kink", argv,
                   ("cli_solution", "gl", "kink", 1.0, 1.0, None, None))


BUILDERS = {
    "zeta-sweep": (zeta_sweep_rounds, zeta_sweep_warmup),
    "lattice-gate": (lattice_gate_rounds, lattice_gate_warmup),
    "pointwise-tables": (pointwise_rounds, pointwise_warmup),
}


def build(workload: str, seed: int, ctx: Context):
    """(rounds, warm-up op) for a workload; the seed fixes every input."""
    rounds_of, warmup_of = BUILDERS[workload]
    rng = random.Random(f"{workload}:{seed}")
    return rounds_of(ctx, rng), warmup_of(ctx)


def same_result(a, b) -> bool:
    """Exact equality of two results of the same input."""
    if hasattr(a, "shape"):          # numpy arrays
        return a.shape == b.shape and bool((a == b).all())
    return a == b


def op_digits(op: Op, result) -> float:
    """Run the op's check; returns its correct digits or raises CheckFailed."""
    import checks
    name, *args = op.check
    return getattr(checks, name)(result, *args)
