"""Output check: compare a pass's outputs with the reference outputs recorded
for its seed pair in ``refs/<workload>.json``.

Numbers and number lists must agree within ``TOLERANCE`` relative to the
reference's largest magnitude; exit codes and hashes must be equal; the MPC
decision strings must be equal, and every position that differs is counted
as a flipped decision.
"""

from __future__ import annotations

import json
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"

#: largest relative deviation of a theta vector, RMSE or cost from its
#: reference; far above the last-digit noise of a reordered sum, far below
#: any change of model or plan
TOLERANCE = 1e-6


def ref_path(workload: str) -> Path:
    return REFS / f"{workload}.json"


def load_refs(workload: str, pool_index: int) -> dict:
    refs = json.loads(ref_path(workload).read_text(encoding="utf-8"))
    return refs["pool"][str(pool_index)]


def rel_err(out, ref) -> float:
    o = out if isinstance(out, list) else [out]
    r = ref if isinstance(ref, list) else [ref]
    if len(o) != len(r):
        return float("inf")
    scale = max((abs(v) for v in r), default=0.0) or 1.0
    return max((abs(a - b) for a, b in zip(o, r)), default=0.0) / scale


def compare(out: dict, ref: dict) -> tuple[bool, float, int]:
    """(within tolerance, largest relative error, flipped decisions)."""
    ok, worst, flips = True, 0.0, 0
    for key, want in ref.items():
        got = out.get(key)
        if key == "decisions":
            got = got or ""
            flips += sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))
            ok = ok and got == want
        elif isinstance(want, (str, int)):
            ok = ok and got == want
        else:
            err = rel_err(got, want)
            worst = max(worst, err)
            ok = ok and err <= TOLERANCE
    return ok, worst, flips
