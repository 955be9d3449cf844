"""Input pools of the benchmark, shared by the workloads and the reference
generator.  The seed draws each round's inputs from these; the named-fault
points are fixed and do not depend on the seed."""

K_POOL = (0.3, 0.5, 0.7, 0.9)
ZETA_S_POOL = (-0.4, -0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3, 0.4, 0.45)
FAULT_K = 0.5
FAULT_S = (0.48, 0.49)
TRACE_T_POOL = (0.25, 0.5, 1.0, 2.0)
PERIODIC = ("b", "d", "nahm")
# Scales of the kink cases A and C.  A fixed pool: for about 1 % of b drawn
# at random the double root of Q at p = -3 b^2 (case C) is not merged and
# the bound state is lost (see the FOUND line in CHANGES.md).  That fault
# runs instead at one fixed scale, FAULT_C_B, as a named fault of
# pointwise-tables in every round, so that it fails the same share of every
# run and a fix shows.
KINK_B_POOL = (0.5, 0.6, 0.75, 0.8, 0.9, 1.0, 1.1, 1.25, 1.4, 1.5, 1.6, 1.75,
               1.8, 2.0)
FAULT_C_B = 0.706165


def case_key(case: str, k) -> str:
    return case if k is None else f"{case}:{k:g}"


def periodic_configs():
    for case in ("b", "d"):
        for k in K_POOL:
            yield case, k
    yield "nahm", None
