"""Behaviour gate: every suite at one pinned configuration against a
committed report.

Trial i of each suite runs on ``RngState(42).child(i)`` at dimension
``(2, 3)[i % 2]``, exactly as ``run_suite`` draws it, and is checked twice:
alone, and in the same-shape group that ``run_suite`` stacks it with.  Both
times the instance digests and the pass/fail/skip counts (at tol 1e-9) must
match the golden file exactly, and every finite margin must match to 1e-12.  A refactor that
keeps behaviour passes unchanged; regenerate the file only for a change
meant to alter what the suites compute:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from entropion import RngState
from entropion.cli import dumps_17g
from entropion.matcore import KernelObstruction
from entropion.suites import SUITES, _digest, _outcomes

GOLDEN = Path(__file__).with_name("golden") / "verify_seed42.json"
SEED = 42
DIMS = (2, 3)
TRIALS = 10
TOL = 1e-9
MARGIN_TOL = 1e-12


def _per_trial(suite):
    """(margin, instance) of each trial, checked alone as ``SUITES[name](rng, d)``."""
    for i in range(TRIALS):
        try:
            yield suite(RngState(SEED).child(i), DIMS[i % len(DIMS)])
        except KernelObstruction as exc:
            yield exc, None


def _grouped(suite):
    """(margin, instance) of each trial as `run_suite` checks them: a suite
    with ``batch`` checks each same-shape group of trials as one stack."""
    return _outcomes(suite, RngState(SEED), list(DIMS), 0, TRIALS)


def collect(outcomes=_per_trial) -> dict:
    """Digest and margin of every trial, with per-suite verdict counts."""
    suites = {}
    for name, suite in SUITES.items():
        rows = []
        counts = {"pass": 0, "fail": 0, "skip": 0}
        for margin, payload in outcomes(suite):
            if isinstance(margin, KernelObstruction):
                rows.append({"digest": None, "margin": math.inf})
                counts["skip"] += 1
                continue
            if isinstance(margin, Exception):
                raise margin
            margin = float(margin)
            rows.append({"digest": _digest(payload), "margin": margin})
            if math.isinf(margin) and margin > 0:
                counts["skip"] += 1
            elif margin < -TOL:
                counts["fail"] += 1
            else:
                counts["pass"] += 1
        suites[name] = {"counts": counts, "trials": rows}
    return {"seed": SEED, "dims": list(DIMS), "trials": TRIALS, "tol": TOL, "suites": suites}


def _margin(value) -> float:
    return float(value)  # the golden file writes infinities as the string "inf"


def _assert_golden(got: dict) -> None:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(got["suites"]) == sorted(golden["suites"])
    for name, want in golden["suites"].items():
        have = got["suites"][name]
        assert have["counts"] == want["counts"], name
        for i, (h, w) in enumerate(zip(have["trials"], want["trials"], strict=True)):
            assert h["digest"] == w["digest"], f"{name} trial {i}"
            hm, wm = h["margin"], _margin(w["margin"])
            if math.isinf(wm):
                assert hm == wm, f"{name} trial {i}: {hm!r} vs {wm!r}"
            else:
                assert abs(hm - wm) <= MARGIN_TOL, f"{name} trial {i}: {hm!r} vs {wm!r}"


def test_golden_report():
    _assert_golden(collect())


def test_golden_report_of_grouped_trials():
    # the same rows from the stacked groups that run_suite checks
    _assert_golden(collect(_grouped))


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(dumps_17g(collect()) + "\n", encoding="utf-8")
