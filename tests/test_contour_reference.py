"""The product-integration contour zeta against the mpmath table of its
hardest periodic points (narrow gaps and bands as k -> 0 and k -> 1, s at
both strip edges, complex s), built by contour_reference.py."""

import json
from pathlib import Path

import pytest

from kinkzeta import zetareg
from kinkzeta.resolvent import build_resolvent

TABLE = json.loads(
    (Path(__file__).resolve().parent / "contour_reference.json").read_text())


def _point(key):
    config, s = key.split("|")
    case, _, k = config.partition(":")
    return case, (float(k) if k else None), complex(s)


@pytest.mark.parametrize("key", sorted(TABLE["zeta"]))
def test_contour_matches_mpmath(key):
    case, k, s = _point(key)
    want = complex(*map(float, TABLE["zeta"][key]))
    ev = zetareg.zeta_contour(build_resolvent(case, 1.0, k), s)
    err = abs(ev.value - want)
    scale = max(1.0, abs(want))
    assert err <= 1e-8 * scale
    # the estimate covers the error, up to the rounding of the reference
    assert err <= ev.err_estimate + 1e-12 * scale
