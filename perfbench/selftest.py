"""Self-test of the benchmark's checks: wrong outputs must count as failed ops.

    python3 perfbench/selftest.py

Feeds the ops fake program entry points that return wrong outputs and
shows that the same accounting the benchmark uses counts each op as
failed and the run as not correct; the control cases (the right output)
must count as passed.  Needs numpy only, not entropion.  Exits 0 when
every case behaves.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

import numpy as np

import pairs
import workloads


def _report(**overrides) -> str:
    report = {"suite": "klein", "trials": 25, "seed": 7, "tol": 1e-9, "pass": True,
              "worst_margin": 0.25, "skipped_infinite": 0, "failures": [], "runtime_ms": 1.5}
    report.update(overrides)
    return json.dumps([report])


def _verify_api(text: str, code: int = 0):
    def main(argv):
        sys.stdout.write(text)
        return code
    return SimpleNamespace(cli=SimpleNamespace(main=main))


def _relent_api(offset: float):
    def route(p, q):
        return _PAIR.h + offset
    return SimpleNamespace(relative_entropy=route, relative_entropy_integral=route,
                           relative_entropy_spectral_kernel=route)


_PAIR = pairs.full_rank(np.random.default_rng(0), 4, 1e-2)


def _raises(p, q):
    raise RuntimeError("quadrature did not settle")


CASES = (
    # (name, op, api, expected to fail)
    ("verify, correct report", workloads.VerifyOp("klein", 7, 25), _verify_api(_report()), False),
    ("verify, pass false", workloads.VerifyOp("klein", 7, 25),
     _verify_api(_report(**{"pass": False})), True),
    ("verify, worst_margin inf and no skips", workloads.VerifyOp("klein", 7, 25),
     _verify_api(_report(worst_margin="inf")), True),
    ("verify, exit code 2", workloads.VerifyOp("klein", 7, 25), _verify_api(_report(), code=2), True),
    ("relent, exact", workloads.RelentOp(_PAIR), _relent_api(0.0), False),
    ("relent, off by 1e-6", workloads.RelentOp(_PAIR), _relent_api(1e-6), True),
    ("relent, route raises", workloads.RelentOp(_PAIR),
     SimpleNamespace(relative_entropy=_raises), True),
)


def main() -> int:
    bad = 0
    for name, op, api, should_fail in CASES:
        tally = workloads.Tally()
        tally.add(op, workloads.attempt(op, api))
        ok = tally.attempted == 1 and tally.failed == int(should_fail)
        print(f"{'ok  ' if ok else 'FAIL'} {name}: attempted {tally.attempted}, failed {tally.failed}"
              f"{'' if not tally.problems else ' (' + tally.problems[0] + ')'}")
        bad += not ok

    # a repeated op whose deterministic output changed fails the run's repeat check
    op = workloads.VerifyOp("klein", 7, 25)
    first = workloads.attempt(op, _verify_api(_report()))
    tally = workloads.Tally()
    tally.repeat_matches(op, first, workloads.attempt(op, _verify_api(_report(worst_margin=0.5))))
    tally.repeat_matches(op, first, workloads.attempt(op, _verify_api(_report(runtime_ms=9.0))))
    ok = (tally.attempted, tally.failed, tally.wrong) == (2, 1, 1)
    print(f"{'ok  ' if ok else 'FAIL'} repeat: changed margin fails, changed runtime_ms passes")
    bad += not ok
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
