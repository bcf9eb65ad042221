"""Workloads, their ops, and the checks every op's output must pass.

A workload is a deck of ops per pass.  Pass k of a run draws its inputs
from (seed, k) only, and every pass holds the same classes of op in the
same numbers, so each percentile stays inside one class whatever the seed
or the run length (README.md gives the make-up).  The program is reached
only through public entry points: the ``verify`` command's ``main`` and the
three relative-entropy routes, looked up on the package object at call
time so a traced run sees them through its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import time
from typing import Callable, NamedTuple

import numpy as np

import pairs

TOL = 1e-9          # the verify command's default tolerance
RELENT_TOL = 1e-8   # three-route agreement tolerance (acceptance C2)

# Every suite but homogeneity, which fails on a few seeds (its absolute tol
# meets a gap that grows with H; see CHANGES.md).  condent_identity, whose
# op time sits at the median, runs twice per pass: 27 ops, so the median
# falls inside that class rather than on the edge between two.
VERIFY_ALL_SUITES = (
    "resolvent_oracle", "relent_routes", "scalar_identity", "joint_convexity",
    "schwarz_quadratic", "operator_schwarz", "cp_schwarz", "block_contraction",
    "monotonicity_dephase", "monotonicity_ptrace", "monotonicity_general",
    "monotonicity_unitary", "ssa", "concavity_condent", "concavity_channel",
    "pure_states", "adjoint_quadratic", "holevo_identities", "holevo_bound",
    "holevo_chain", "holevo_routes", "klein", "dephase_z", "ancilla",
    "purification", "condent_identity",
)
VERIFY_ALL_DECK = VERIFY_ALL_SUITES + ("condent_identity",)
VERIFY_ALL_TRIALS = 25

# ssa_tripartite sizes: local dims of the ssa op, and the --dims of the
# purification and pure_states ops (purifications of 56*56 = 3136 and
# 40*42 = 1680 dimensions).
SSA_DIMS = (3, 4)
PURIFICATION_DIM = 56
PURE_STATES_DIM = 40


class Outcome(NamedTuple):
    seconds: float
    output: object
    problem: str | None   # None when the op succeeded and its output checked out
    wrong: bool           # True when the op ran but its output failed a check


class VerifyOp:
    """``entropion verify --suites SUITE --seed SEED --trials N [--dims D]``."""

    def __init__(self, suite: str, seed: int, trials: int, dims: tuple[int, ...] | None = None):
        self.suite = suite
        self.seed = seed
        self.trials = trials
        self.argv = ["verify", "--suites", suite, "--seed", str(seed), "--trials", str(trials)]
        if dims is not None:
            self.argv += ["--dims", ",".join(str(d) for d in dims)]

    def __repr__(self):
        return "entropion " + " ".join(self.argv)

    def run(self, api) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = api.cli.main(self.argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, output) -> str | None:
        code, text, err = output
        if code != 0:
            return f"exit code {code}: {err.strip()[-300:]}"
        try:
            reports = json.loads(text)
        except json.JSONDecodeError as exc:
            return f"report is not JSON: {exc}"
        if not isinstance(reports, list) or len(reports) != 1:
            return "expected exactly one report"
        r = reports[0]
        if (r.get("suite"), r.get("seed"), r.get("trials")) != (self.suite, self.seed, self.trials):
            return f"report is for {r.get('suite')!r} seed {r.get('seed')} trials {r.get('trials')}"
        if r.get("tol") != TOL:
            return f"tol {r.get('tol')!r} is not the default {TOL}"
        if r.get("pass") is not True or r.get("failures"):
            return "report does not pass"
        skipped = r.get("skipped_infinite")
        if not isinstance(skipped, int) or not 0 <= skipped < self.trials:
            return f"skipped_infinite {skipped!r} is not below trials {self.trials}"
        margin = r.get("worst_margin")
        if isinstance(margin, bool) or not isinstance(margin, (int, float)) or not math.isfinite(margin):
            return f"worst_margin {margin!r} is not finite"
        if margin < -TOL:
            return f"worst_margin {margin!r} is below -tol"
        return None

    @staticmethod
    def stable(output) -> str:
        """The deterministic part of the report: everything but runtime_ms."""
        return re.sub(r'"runtime_ms": [^,\n}]*', '"runtime_ms": -', output[1])


class RelentOp:
    """The three public routes to H(P, Q) on one constructed pair."""

    ROUTES = ("relative_entropy", "relative_entropy_integral", "relative_entropy_spectral_kernel")

    def __init__(self, pair: pairs.Pair):
        self.pair = pair

    def __repr__(self):
        return f"relent {self.pair.kind} (H = {self.pair.h!r})"

    def run(self, api) -> tuple[float, float, float]:
        p, q = self.pair.p, self.pair.q
        return (api.relative_entropy(p, q), api.relative_entropy_integral(p, q),
                api.relative_entropy_spectral_kernel(p, q))

    def check(self, output) -> str | None:
        ref = self.pair.h
        for route, h in zip(self.ROUTES, output):
            h = float(h)
            if math.isinf(ref):
                if h != math.inf:
                    return f"{route} gave {h!r} on a support-violating pair"
            elif not math.isfinite(h) or abs(h - ref) > RELENT_TOL:
                return f"{route} gave {h!r}, construction gives {ref!r}"
        return None

    @staticmethod
    def stable(output) -> str:
        return " ".join(float(h).hex() for h in output)


def attempt(op, api) -> Outcome:
    """Run one op, timing only the call into the program, then check it."""
    start = time.perf_counter()
    try:
        output = op.run(api)
    except Exception as exc:  # an op that raises is a failed op, not a dead run
        return Outcome(time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}", False)
    seconds = time.perf_counter() - start
    problem = op.check(output)
    return Outcome(seconds, output, problem, problem is not None)


class Tally:
    """Attempted and failed ops, and the op times of the timed phase."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.times: list[float] = []
        self.problems: list[str] = []

    def add(self, op, outcome: Outcome, timed: bool = True) -> None:
        self.attempted += 1
        if timed:
            self.times.append(outcome.seconds)
        if outcome.problem is not None:
            self.failed += 1
            self.wrong += outcome.wrong
            if len(self.problems) < 10:
                self.problems.append(f"{op!r}: {outcome.problem}")

    def repeat_matches(self, op, first: Outcome, again: Outcome) -> None:
        """Count a repeated op; it fails unless its output matches the first
        run's deterministic part byte for byte."""
        if again.problem is None and op.stable(again.output) != op.stable(first.output):
            again = again._replace(problem="repeat differs from the first run", wrong=True)
        self.add(op, again, timed=False)


# --------------------------------------------------------------------------
# decks


def _stream(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


def verify_all_deck(seed: int, k: int, api) -> list:
    """The suites at the CLI defaults (dims 2,3; tol 1e-9), one op per
    (suite, seed)."""
    seeds = _stream(seed, k).integers(0, 2 ** 31, len(VERIFY_ALL_DECK))
    return [VerifyOp(s, int(x), VERIFY_ALL_TRIALS) for s, x in zip(VERIFY_ALL_DECK, seeds)]


def _seed_where(rng: np.random.Generator, wanted: Callable[[int], bool], limit: int = 1 << 20) -> int:
    for _ in range(limit):
        s = int(rng.integers(0, 2 ** 31))
        if wanted(s):
            return s
    raise RuntimeError("no seed met the workload's rank condition")


def ssa_tripartite_deck(seed: int, k: int, api) -> list:
    """ssa at local dims 3 and 4, purification and pure_states at full rank.

    Each op's seed is drawn until the op's first draws in the program's own
    stream give full rank (the largest purification), so every pass holds
    the same sizes: the op time, the peak memory and the class make-up do
    not depend on which ranks a seed happens to give.  Trial i of a suite
    draws from RngState(seed).child(i), and these suites draw the rank (the
    second factor for pure_states) first.
    """
    rng = _stream(seed, k)
    child = lambda s, i: api.RngState(s).child(i)  # noqa: E731
    d3, d4 = SSA_DIMS[0] ** 3, SSA_DIMS[1] ** 3
    ssa = _seed_where(rng, lambda s: child(s, 0).integer(d3) == d3 - 1
                      and child(s, 1).integer(d4) == d4 - 1)
    pur = _seed_where(rng, lambda s: child(s, 0).integer(PURIFICATION_DIM) == PURIFICATION_DIM - 1)
    pure = _seed_where(rng, lambda s: child(s, 0).integer(3) == 2)
    return [
        VerifyOp("ssa", ssa, 2, SSA_DIMS),
        VerifyOp("purification", pur, 1, (PURIFICATION_DIM,)),
        VerifyOp("pure_states", pure, 1, (PURE_STATES_DIM,)),
    ]


# (build, count) per class, cheapest first.  20 ops per pass: the eight
# cheap ops fill 0-40 %, so the median falls in the middle of the
# 1e-3 / d = 4 class (40-60 %) and the 95th percentile in the middle of the
# 1e-4 / d = 8 class (90-100 %).
RELENT_CLASSES = (
    (lambda r: pairs.violating(r, 8, 6, 1e-1), 2),
    (lambda r: pairs.full_rank(r, 4, 1e-1), 1),
    (lambda r: pairs.full_rank(r, 8, 1e-1), 1),
    (lambda r: pairs.singular(r, 8, 6, 4, 1e-1), 2),
    (lambda r: pairs.full_rank(r, 4, 1e-2), 1),
    (lambda r: pairs.full_rank(r, 8, 1e-2), 1),
    (lambda r: pairs.full_rank(r, 4, 1e-3), 4),
    (lambda r: pairs.full_rank(r, 8, 1e-3), 3),
    (lambda r: pairs.full_rank(r, 4, 1e-4), 3),
    (lambda r: pairs.full_rank(r, 8, 1e-4), 2),
)


def relent_conditioned_deck(seed: int, k: int, api) -> list:
    rng = _stream(seed, k)
    return [RelentOp(build(rng)) for build, count in RELENT_CLASSES for _ in range(count)]


class Workload(NamedTuple):
    deck: Callable[[int, int, object], list]
    min_ops: int  # enough ops that ten or more lie beyond the 95th percentile


WORKLOADS = {
    "verify_all": Workload(verify_all_deck, 200),
    "ssa_tripartite": Workload(ssa_tripartite_deck, 0),
    "relent_conditioned": Workload(relent_conditioned_deck, 200),
}
