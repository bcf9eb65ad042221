import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import entropion
from entropion import Ensemble, NonConvergence, RngState, run_suite, suite_names
from entropion import inequalities as inequalities_mod
from entropion import suites as suites_mod
from entropion.cli import dumps_17g, main
from entropion.entropy import von_neumann_entropy
from entropion.matcore import KernelObstruction, Spectrum, partial_trace_pure
from entropion.randgen import random_unit_vector

EXPECTED_SUITES = [
    "adjoint_quadratic",
    "ancilla",
    "block_contraction",
    "concavity_channel",
    "concavity_condent",
    "condent_identity",
    "cp_schwarz",
    "dephase_z",
    "holevo_bound",
    "holevo_chain",
    "holevo_identities",
    "holevo_routes",
    "homogeneity",
    "joint_convexity",
    "klein",
    "monotonicity_dephase",
    "monotonicity_general",
    "monotonicity_ptrace",
    "monotonicity_unitary",
    "operator_schwarz",
    "pure_states",
    "relent_routes",
    "resolvent_oracle",
    "scalar_identity",
    "schwarz_quadratic",
    "ssa",
]


def test_suite_names_cover_every_check():
    names = suite_names()
    assert sorted(names) == sorted(set(names))  # no duplicates
    for expected in EXPECTED_SUITES:
        assert expected in names
    assert len(names) == 27


def test_unknown_suite_raises():
    with pytest.raises(ValueError):
        run_suite("nonexistent_suite")


def test_run_suite_argument_validation():
    with pytest.raises(ValueError):
        run_suite("klein", dims=())
    with pytest.raises(ValueError):
        run_suite("klein", dims=(0,))
    with pytest.raises(ValueError):
        run_suite("klein", trials=0)
    with pytest.raises(ValueError):
        run_suite("klein", tol=-1.0)


def test_report_fields_and_pass():
    rep = run_suite("klein", dims=(2, 3), trials=25, seed=5, tol=1e-9)
    assert rep.suite == "klein"
    assert rep.trials == 25
    assert rep.seed == 5
    assert rep.tol == 1e-9
    assert rep.passed
    assert rep.failures == ()
    assert rep.skipped_infinite == 0
    assert rep.worst_margin > -1e-9
    assert rep.runtime_ms > 0


def test_report_json_dict_key_order():
    rep = run_suite("homogeneity", trials=5, seed=1)
    d = rep.to_json_dict()
    assert list(d) == [
        "suite",
        "trials",
        "seed",
        "tol",
        "pass",
        "worst_margin",
        "skipped_infinite",
        "failures",
        "runtime_ms",
    ]
    assert d["pass"] is True
    assert isinstance(d["failures"], list)


def test_determinism_same_seed():
    a = run_suite("relent_routes", dims=(2, 3), trials=30, seed=11, tol=1e-8)
    b = run_suite("relent_routes", dims=(2, 3), trials=30, seed=11, tol=1e-8)
    da, db = a.to_json_dict(), b.to_json_dict()
    da.pop("runtime_ms")
    db.pop("runtime_ms")
    assert da == db  # bit-identical margins, not merely close


def test_different_seeds_differ():
    # the instances, not the margins: a route gap is a few ulps, so two
    # seeds can share a worst margin
    draw = suites_mod.SUITES["relent_routes"].draw
    for i in range(5):
        d = (2, 3)[i % 2]
        a = suites_mod._digest(draw(RngState(1).child(i), d))
        b = suites_mod._digest(draw(RngState(2).child(i), d))
        assert a != b, i


def test_scalar_identity_passes_where_panel_doubling_failed():
    # trial 22 draws w = 4.204897886709956, where the stopping rule of the
    # panel-doubling quadrature accepted an answer 1.27e-9 off
    rep = run_suite("scalar_identity", trials=25, seed=1175316570)
    assert rep.passed
    assert rep.worst_margin > -1e-13


def test_dims_cycle_changes_instances():
    a = run_suite("klein", dims=(2,), trials=10, seed=3)
    b = run_suite("klein", dims=(5,), trials=10, seed=3)
    assert a.worst_margin != b.worst_margin


def test_failures_recorded_below_tolerance():
    # agreement suites report margins as -|gap|, so tol=0 flags every trial
    # whose routes differ at all -- a deterministic failure generator
    rep = run_suite("relent_routes", dims=(3,), trials=10, seed=13, tol=0.0)
    assert not rep.passed
    assert len(rep.failures) > 0
    d = rep.to_json_dict()
    assert d["pass"] is False
    for f in rep.failures:
        assert f.margin < 0
        assert 0 <= f.trial < 10
        assert len(f.digest) == 12
        int(f.digest, 16)  # hex string


def test_failures_replay_from_their_digest():
    # a failure's digest names the instance that draw rebuilds from the
    # trial's own stream, and check alone reproduces the margin
    suite = suites_mod.SUITES["relent_routes"]
    rep = run_suite("relent_routes", dims=(3,), trials=10, seed=13, tol=0.0)
    assert rep.failures
    for f in rep.failures:
        instance = suite.draw(RngState(13).child(f.trial), 3)
        assert suites_mod._digest(instance) == f.digest
        assert suite.check(*instance) == f.margin
    # the suites that read --dims as a local factor dimension (README)
    assert {n for n, s in suites_mod.SUITES.items() if s.local_dims} == {
        "ssa", "monotonicity_ptrace", "concavity_condent", "pure_states",
        "holevo_chain", "condent_identity",
    }


def test_runner_accounting_with_synthetic_trial(monkeypatch):
    # exercise the skip and failure bookkeeping without relying on rare draws
    history = iter([math.inf, -0.5, 0.25, math.inf, -0.125])

    def fake_trial(rng, d):
        return next(history), (np.eye(2),)

    monkeypatch.setitem(suites_mod.SUITES, "fake", fake_trial)
    rep = run_suite("fake", dims=(2,), trials=5, seed=0, tol=1e-9)
    assert rep.skipped_infinite == 2
    assert rep.worst_margin == -0.5
    assert [f.trial for f in rep.failures] == [1, 4]
    assert not rep.passed


def test_nan_margin_is_a_failure(monkeypatch):
    # min() and < both ignore NaN; the runner must not read it as a pass
    history = iter([0.25, math.nan, 0.5])

    def fake_trial(rng, d):
        return next(history), (np.eye(2),)

    monkeypatch.setitem(suites_mod.SUITES, "fake", fake_trial)
    rep = run_suite("fake", dims=(2,), trials=3, seed=0, tol=1e-9)
    assert not rep.passed
    assert rep.skipped_infinite == 0
    assert [f.trial for f in rep.failures] == [1]
    assert math.isnan(rep.failures[0].margin)
    assert math.isnan(rep.worst_margin)
    assert '"worst_margin": "nan"' in dumps_17g(rep.to_json_dict())


def test_all_skipped_suite_does_not_pass(monkeypatch, tmp_path):
    # a suite whose every trial was skipped checked nothing
    monkeypatch.setitem(suites_mod.SUITES, "fake", lambda rng, d: (math.inf, (np.eye(2),)))
    rep = run_suite("fake", dims=(2,), trials=3, seed=0, tol=1e-9)
    assert rep.skipped_infinite == 3
    assert rep.failures == ()
    assert rep.worst_margin == math.inf
    assert not rep.passed
    assert rep.to_json_dict()["pass"] is False
    out = tmp_path / "r.json"
    assert main(["verify", "--suites", "fake", "--trials", "3", "--out", str(out)]) == 2

    # infinite-entropy and kernel skips add up
    history = iter([math.inf, None, math.inf])

    def mixed_skips(rng, d):
        margin = next(history)
        if margin is None:
            raise KernelObstruction("weight on the kernel")
        return margin, (np.eye(2),)

    monkeypatch.setitem(suites_mod.SUITES, "fake", mixed_skips)
    rep = run_suite("fake", dims=(2,), trials=3, seed=0, tol=1e-9)
    assert (rep.skipped_infinite, rep.skipped_kernel) == (2, 1)
    assert not rep.passed


@pytest.mark.parametrize("module, name, suite", [
    (suites_mod, "relative_entropy", "relent_routes"),
    (suites_mod, "relative_entropy_integral", "relent_routes"),
    (suites_mod, "relative_entropy_spectral_kernel", "relent_routes"),
    (inequalities_mod, "_relent_psd", "joint_convexity"),
    (inequalities_mod, "_relent_psd", "monotonicity_general"),
    (inequalities_mod, "_relent_psd", "monotonicity_unitary"),
    (inequalities_mod, "_relent_psd", "holevo_routes"),
])
def test_a_one_sided_infinity_fails(monkeypatch, module, name, suite):
    # one route, or the mixture's or the channel output's relative entropy
    # (the kernel `_relent_psd` on those package-built operands), planted at
    # +inf on finite instances: a failure in every trial, never a skip
    monkeypatch.setattr(module, name, lambda *args: math.inf)
    rep = run_suite(suite, trials=4)
    assert rep.skipped_infinite == 0
    assert [f.margin for f in rep.failures] == [-math.inf] * 4


def test_relent_routes_skip_when_every_route_is_infinite(monkeypatch):
    for name in ("relative_entropy", "relative_entropy_integral", "relative_entropy_spectral_kernel"):
        # +inf for each pair of the stack the batch checks
        monkeypatch.setattr(suites_mod, name, lambda p, q: np.full(np.shape(p)[:-2], math.inf))
    rep = run_suite("relent_routes", trials=4)
    assert (rep.skipped_infinite, rep.failures) == (4, ())


def _raising_trial(rng, d):
    # the first draw of each trial's own stream picks how it ends
    outcome = rng.integer(5)
    if outcome == 0:
        raise NonConvergence("quadrature did not settle")
    if outcome == 1:
        raise ValueError("matrix is not PSD")
    if outcome == 2:
        raise ZeroDivisionError("division by zero")
    if outcome == 3:
        raise KernelObstruction("weight on the kernel")
    return 0.0, (np.eye(2),)


def test_trial_errors_are_recorded_and_the_run_goes_on(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(suites_mod.SUITES, "fake", _raising_trial)
    outcomes = [RngState(0).child(i).integer(5) for i in range(40)]
    assert set(outcomes) == {0, 1, 2, 3, 4}
    rep = run_suite("fake", dims=(2,), trials=40, seed=0, tol=1e-9)
    names = {0: "NonConvergence", 1: "ValueError", 2: "ZeroDivisionError"}
    assert [(e.trial, e.error) for e in rep.errors] == [
        (i, names[o]) for i, o in enumerate(outcomes) if o in names
    ]
    # a kernel obstruction is a skip of its own kind, not an error
    assert rep.skipped_kernel == outcomes.count(3)
    assert rep.skipped_infinite == 0
    assert rep.failures == ()
    assert rep.worst_margin == 0.0
    assert not rep.passed
    assert rep.to_json_dict()["skipped_kernel"] == outcomes.count(3)
    errors = rep.to_json_dict()["errors"]
    assert errors[0] == {"trial": outcomes.index(0), "error": "NonConvergence",
                         "message": "quadrature did not settle"}

    # verify prints every report and exits 2 instead of a traceback
    out = tmp_path / "r.json"
    rc = main(["verify", "--suites", "fake,klein", "--trials", "40", "--seed", "0",
               "--out", str(out)])
    assert rc == 2
    assert f"skipped=0 kernel={outcomes.count(3)} errors=" in capsys.readouterr().err
    text = out.read_text()
    assert '"suite": "fake"' in text and '"suite": "klein"' in text
    assert '"error": "ZeroDivisionError"' in text
    csv_out = tmp_path / "r.csv"
    assert main(["verify", "--suites", "fake", "--trials", "40", "--seed", "0",
                 "--format", "csv", "--out", str(csv_out)]) == 2
    row = csv_out.read_text().splitlines()[1].split(",")
    assert row[4] == "false" and int(row[7]) == len(rep.errors)
    assert row[6] == "0"  # the CSV column counts infinite-entropy skips only


def test_report_without_errors_has_no_errors_key():
    rep = run_suite("klein", dims=(2,), trials=3, seed=0)
    assert rep.errors == ()
    assert list(rep.to_json_dict()) == [
        "suite", "trials", "seed", "tol", "pass", "worst_margin",
        "skipped_infinite", "failures", "runtime_ms",
    ]


def test_other_trial_exceptions_still_propagate(monkeypatch):
    # a programming error is not a trial outcome
    def broken(rng, d):
        raise TypeError("unsupported operand")

    monkeypatch.setitem(suites_mod.SUITES, "fake", broken)
    with pytest.raises(TypeError):
        run_suite("fake", dims=(2,), trials=2, seed=0)


def _record_solves(monkeypatch, calls=None) -> dict[str, list[tuple[tuple[int, ...], bytes]]]:
    # the shape and bytes of every matrix passed to eigh and eigvalsh, each
    # matrix of a stacked call on its own; the calls go to ``calls`` if given
    seen = {"eigh": [], "eigvalsh": []}
    for name in seen:
        def counted(a, *args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
            a = np.asarray(a)
            seen[_name].extend((m.shape, np.ascontiguousarray(m).tobytes())
                               for m in a.reshape(-1, *a.shape[-2:]))
            if calls is not None:
                calls[_name] += 1
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return seen


def _full_rank_ssa_seed(d: int) -> int:
    # the first seed whose trial 0 draws an ssa state of full rank d^3
    big = d ** 3
    return next(s for s in range(1 << 16) if RngState(s).child(0).integer(big) == big - 1)


def test_holevo_routes_decomposes_each_matrix_once(monkeypatch):
    # the ensemble average and its channel image are decomposed once per
    # trial, not once per member; each member and each image is read from
    # the eigvalsh that validated it: 2n matrices (one stacked call each),
    # and two in the flagged-state relative entropies.  Each average's one
    # eigh serves route one and the chi margin, so neither meets eigvalsh
    solves = {"eigh": 0, "eigvalsh": 0}
    seen = _record_solves(monkeypatch, solves)
    for d in (2, 3):
        for i in range(4):
            for matrices in seen.values():
                matrices.clear()
            solves.update(eigh=0, eigvalsh=0)
            _, (weights, states, _) = suites_mod.SUITES["holevo_routes"](RngState(42).child(i), d)
            for matrices in seen.values():
                assert len(set(matrices)) == len(matrices)
            assert len(seen["eigvalsh"]) == 2 * len(weights) + 2
            assert solves["eigvalsh"] == 4
            assert solves["eigh"] < len(seen["eigh"])
            avg = Ensemble(weights, states).average()
            assert (avg.shape, avg.tobytes()) in set(seen["eigh"]) - set(seen["eigvalsh"])


def test_holevo_chain_forms_no_kronecker_products(monkeypatch):
    # the product channels M_A (x) M_B are built from their Kraus stacks in
    # one broadcast product, never one np.kron per pair of operators
    calls = []
    kron = np.kron

    def counted(*args, **kwargs):
        calls.append(1)
        return kron(*args, **kwargs)

    monkeypatch.setattr(np, "kron", counted)
    rep = run_suite("holevo_chain", trials=4)
    assert rep.passed
    assert len(calls) == 0


def test_flagged_state_forms_no_kronecker_products(monkeypatch):
    # gamma_QC is block diagonal: its blocks are written in place, never
    # built as one np.kron per member; one flagged state per stacked call,
    # that is per group of same-shape trials
    calls = {"inside": 0, "flagged": 0}
    kron, flagged_state = np.kron, suites_mod.flagged_state
    inside = []

    def counted(*args, **kwargs):
        calls["inside"] += bool(inside)
        return kron(*args, **kwargs)

    def traced(ens):
        calls["flagged"] += 1
        inside.append(1)
        try:
            return flagged_state(ens)
        finally:
            inside.pop()

    monkeypatch.setattr(np, "kron", counted)
    monkeypatch.setattr(suites_mod, "flagged_state", traced)
    groups = {(d, *map(np.shape, suites_mod.SUITES["holevo_routes"].draw(RngState(42).child(i), d)))
              for i, d in enumerate((2, 3) * 20)}
    rep = run_suite("holevo_routes", trials=40)
    assert rep.passed
    assert calls == {"inside": 0, "flagged": len(groups)} and len(groups) < 40


def test_ssa_and_pure_states_trials_decompose_nothing_twice(monkeypatch):
    # a full-rank ssa trial at local d = 4: one eigh of rho (64 x 64) serves
    # both the SSA margins and the purification, and S(AD) of the 4096-dim
    # purification is read from the 16 x 16 BC marginal, not the 256 x 256
    # AD one, so no solve is larger than rho and no matrix is solved twice
    seen = _record_solves(monkeypatch)
    suites_mod.SUITES["ssa"](RngState(_full_rank_ssa_seed(4)).child(0), 4)
    solved = seen["eigh"] + seen["eigvalsh"]
    assert max(max(shape) for shape, _ in solved) == 64
    assert len(set(solved)) == len(solved)
    assert (len(seen["eigh"]), len(seen["eigvalsh"])) == (1, 9)
    # pure_states reads both entropies from the spectra its lemma check took
    for calls in seen.values():
        calls.clear()
    suites_mod.SUITES["pure_states"](RngState(42).child(0), 3)
    assert (len(seen["eigh"]), len(seen["eigvalsh"])) == (0, 2)


def test_ssa_sees_a_bad_purification(monkeypatch):
    # S(AD) = S(BC) on a pure state: the identity the ssa check reads S(AD) by
    rng = RngState(3)
    for d in (2, 3):
        for rank in (1, d, d ** 3):
            psi = random_unit_vector(d ** 3 * rank, rng)
            dims = (d, d, d, rank)
            s_ad, s_bc = (von_neumann_entropy(partial_trace_pure(psi, dims, keep))
                          for keep in ((0, 3), (1, 2)))
            assert abs(s_ad - s_bc) < 1e-13
    # a purification of (1 - eps) rho + eps I / d^3 in place of rho's must fail
    purify_spectrum = suites_mod._purify

    def mixed(spec):
        # the spectra of a stack of states of one rank, one row per state
        lam = (1 - 1e-6) * spec.eigenvalues + 1e-6 / spec.eigenvalues.shape[-1]
        return purify_spectrum(Spectrum(lam, spec.eigenvectors))

    monkeypatch.setattr(suites_mod, "_purify", mixed)
    for d in (2, 3, 4):
        for i in range(3):
            margin, _ = suites_mod.SUITES["ssa"](RngState(11).child(i), d)
            assert margin < -1e-9, (d, i, margin)


def test_ssa_trial_memory_stays_small():
    # one full-rank trial at local d = 4 purifies onto 4096 dimensions; the
    # projector on them alone would be a 4096 x 4096 complex matrix (268 MB)
    d = 4
    seed = _full_rank_ssa_seed(d)
    tracemalloc.start()
    try:
        margin, _ = suites_mod.SUITES["ssa"](RngState(seed).child(0), d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    assert margin >= -1e-9


def test_every_suite_passes_briefly():
    # a smoke pass over the entire registry at small trial counts
    for name in suite_names():
        dims = (2,) if suites_mod.SUITES[name].local_dims else (2, 3)
        rep = run_suite(name, dims=dims, trials=8, seed=42, tol=1e-8)
        assert rep.passed, f"{name}: worst={rep.worst_margin}"


def test_homogeneity_keeps_failing_its_ill_conditioned_trial():
    # a live defect (ROADMAP item 4): trial 12 draws Q with lambda_min 2.7e-7,
    # and the float H(10 P, 10 Q) - 10 H(P, Q) misses tol by rounding alone
    rep = run_suite("homogeneity", trials=25, seed=620870474)
    assert [(f.trial, f.digest) for f in rep.failures] == [(12, "396c1ad07f1c")]
    assert rep.failures[0].margin < -1e-9
    assert rep.errors == ()


BATCHED = {
    "klein", "dephase_z", "resolvent_oracle", "monotonicity_dephase", "monotonicity_ptrace",
    "monotonicity_unitary", "monotonicity_general", "condent_identity", "holevo_identities",
    "concavity_condent", "holevo_chain", "holevo_routes", "joint_convexity", "holevo_bound",
    "schwarz_quadratic", "cp_schwarz", "adjoint_quadratic", "concavity_channel", "ancilla",
    "block_contraction", "operator_schwarz", "relent_routes", "scalar_identity", "homogeneity",
    "ssa", "pure_states", "purification",
}


def test_batched_margins_equal_per_trial_margins_bit_for_bit():
    # run_suite checks each same-shape group of trials as one stack, and
    # every trial keeps the bits of its own check, a stack of one
    assert {n for n, s in suites_mod.SUITES.items() if s.batch is not None} == BATCHED
    for name in sorted(BATCHED):
        suite = suites_mod.SUITES[name]
        for seed in (5, 42, 77):
            outcomes = suites_mod._outcomes(suite, RngState(seed), [2, 3], 0, 40)
            assert len(outcomes) == 40
            for i, (margin, instance) in enumerate(outcomes):
                one, again = suite(RngState(seed).child(i), (2, 3)[i % 2])
                assert suites_mod._digest(instance) == suites_mod._digest(again)
                assert float(margin).hex() == float(one).hex(), (name, seed, i)


def test_klein_batch_solves_once_per_dimension_group(monkeypatch):
    # 25 trials at dims (2, 3) are two groups, each one stacked eigvalsh of
    # the P's and one stacked eigh of the Q's; the draws add one eigh for
    # the root of each singular Q they build (_compatible_pair)
    roots = sum(RngState(42).child(i).integer(4) == 0 for i in range(25))
    calls = {"eigh": 0, "eigvalsh": 0}
    seen = _record_solves(monkeypatch, calls)
    assert run_suite("klein", dims=(2, 3), trials=25).passed
    assert calls == {"eigh": 2 + roots, "eigvalsh": 2}
    assert (len(seen["eigh"]), len(seen["eigvalsh"])) == (25 + roots, 25)


def test_holevo_bound_batch_solves_once_per_shape_group(monkeypatch):
    # per group of same (d, member count, effect count): one eigvalsh of the
    # members, of their images and of each average, and one eigh of the
    # effects, whatever the number of trials in the group; the draws add
    # their own solves (random_povm), counted apart
    suite = suites_mod.SUITES["holevo_bound"]
    calls = {"eigh": 0, "eigvalsh": 0}
    _record_solves(monkeypatch, calls)
    instances = [suite.draw(RngState(42).child(i), (2, 3)[i % 2]) for i in range(25)]
    drawn = dict(calls)
    groups = {((2, 3)[i % 2], *map(np.shape, x)) for i, x in enumerate(instances)}
    calls.update(eigh=0, eigvalsh=0)
    assert run_suite("holevo_bound", dims=(2, 3), trials=25).passed
    assert len(groups) < 25
    assert calls == {"eigh": drawn["eigh"] + len(groups), "eigvalsh": drawn["eigvalsh"] + 4 * len(groups)}


@pytest.mark.parametrize("name, target, plant", [
    ("joint_convexity", "check_joint_convexity",
     lambda real: lambda inst: real(inst)._replace(subadditive_margin=real(inst).margin * math.nan)),
    ("holevo_routes", "check_monotonicity", lambda real: lambda *args: real(*args) * math.nan),
    ("block_contraction", "check_block_contraction",
     lambda real: lambda *args: dataclasses.replace(
         real(*args), max_singular_value=real(*args).max_singular_value * math.nan)),
    ("cp_schwarz", "check_cp_schwarz", lambda real: lambda *args: (real(*args)[0], real(*args)[1] * math.nan)),
    ("holevo_chain", "check_partial_measurement_chain",
     lambda real: lambda *args: (real(*args)[0], real(*args)[1] * math.nan)),
    ("holevo_identities", "chi_via_qc", lambda real: lambda ens: real(ens) * math.nan),
    ("relent_routes", "relative_entropy_spectral_kernel", lambda real: lambda p, q: real(p, q) * math.nan),
    ("scalar_identity", "scalar_log_identity", lambda real: lambda w: (*real(w)[:2], real(w)[2] * math.nan)),
    # H(x P, x Q) at x = 10 alone, the last of the four: Tr 10 P >= 5
    ("homogeneity", "relative_entropy", lambda real: lambda p, q: np.where(
        np.trace(p, axis1=-2, axis2=-1).real >= 5.0, math.nan, real(p, q))),
    # the entropies of the purification, behind the third margin
    ("ssa", "von_neumann_entropy", lambda real: lambda rho: real(rho) * math.nan),
    ("pure_states", "_entropy", lambda real: lambda lam: real(lam) * math.nan),
    ("purification", "check_pure_state_lemmas", lambda real: lambda *args: real(*args) * math.nan),
])
def test_a_nan_in_a_later_margin_is_a_failure(monkeypatch, name, target, plant):
    # min() would pass over a NaN that is not its first argument; the checks
    # that combine margins keep it, so every trial fails with a NaN margin
    monkeypatch.setattr(suites_mod, target, plant(getattr(suites_mod, target)))
    rep = run_suite(name, dims=(2,), trials=6, seed=42)
    assert [f.trial for f in rep.failures] == list(range(6))
    assert all(math.isnan(f.margin) for f in rep.failures)
    assert math.isnan(rep.worst_margin) and rep.errors == ()


def test_least_keeps_min_bits_and_any_nan():
    least = suites_mod._least
    assert float(least(0.5, 0.25, 0.75)) == 0.25
    assert math.copysign(1.0, float(least(0.0, -0.0))) == 1.0  # the earlier of equal margins
    assert math.copysign(1.0, float(least(-0.0, 0.0))) == -1.0
    for args in ((math.nan, 1.0), (1.0, math.nan), (1.0, 0.5, math.nan), (1.0, math.nan, -1.0)):
        assert math.isnan(float(least(*args))), args
    got = least(np.array([1.0, 2.0, 3.0]), np.array([0.5, math.nan, 4.0]))
    assert got[0] == 0.5 and math.isnan(got[1]) and got[2] == 3.0


def _negate_a_member(instance):
    weights, states = instance
    return weights, [states[0], -states[1], *states[2:]]


def _joint_kernel(instance):
    # Q = P with a 1e-14 eigenvalue: the oracle solves, the resolvent
    # refuses X's weight on the joint kernel
    _, _, x, t = instance
    q = np.diag([1.0, 1.0, 1e-14]).astype(complex)
    return q, q.copy(), x, t


def _ground_state(instance):
    _, gamma = instance
    return np.diag([1.0, 0.0, 0.0]).astype(complex), gamma


def _off_support(instance):
    return np.diag([1.0, 0.0, 0.0]).astype(complex), np.diag([0.0, 0.5, 0.5]).astype(complex)


def _povm_off_identity(instance):
    weights, states, effects = instance
    return weights, states, [1.5 * effects[0], *effects[1:]]


def _support_violating_pair(instance):
    weights, pairs = instance
    bad = np.diag([1.0, 0.0, 0.0]).astype(complex), np.diag([0.0, 0.5, 0.5]).astype(complex)
    return weights, [pairs[0], bad, *pairs[2:]]


def _not_trace_preserving(instance):
    weights, states, kraus = instance
    return weights, states, 1.1 * np.asarray(kraus)


def _singular_p(instance):
    a, ps = instance
    return a, [ps[0], np.diag([1.0, 0.0, 0.0]).astype(complex), *ps[2:]]


def _relent_psd_at_ground_state(value):
    # the channel output's relative entropy, planted at ``value`` where P is
    # |0><0| exactly: only the planted trial of a stack is hit
    real = inequalities_mod._relent_psd
    return lambda p, q: np.where(p[..., 0, 0].real == 1.0, value, real(p, q))


# the class and message that the trial-by-trial checks of the previous
# release gave for a planted defect that raises
_PLANTED_ERRORS = {
    "holevo_bound": ("ValueError", "effects do not sum to the identity (defect 9.524e-02)"),
    "joint_convexity": ("ValueError", "pair 1: P has weight 1.000e+00 outside supp(Q)"),
    "concavity_channel": ("ValueError", "channel is not trace preserving (defect 2.100e-01)"),
    "operator_schwarz": ("ValueError", "eigenvalue 0.0 outside the domain of f: float division by zero"),
}


@pytest.mark.parametrize("name, plant, kernel", [
    ("holevo_identities", _negate_a_member, None),
    ("resolvent_oracle", _joint_kernel, None),
    ("monotonicity_dephase", _ground_state, math.inf),
    ("monotonicity_dephase", _ground_state, math.nan),
    ("klein", _off_support, None),
    ("holevo_bound", _povm_off_identity, None),
    ("joint_convexity", _support_violating_pair, None),
    ("concavity_channel", _not_trace_preserving, None),
    ("operator_schwarz", _singular_p, None),
])
def test_a_planted_defect_lands_on_its_trial_only(monkeypatch, name, plant, kernel):
    # trial 5 (d = 3) of a 12-trial run is replaced by a defective instance:
    # a non-PSD member, a kernel obstruction, a one-sided infinity, a NaN,
    # a support violation (a skip), POVM effects that do not sum to I, a
    # support-violating convex pair, a non-trace-preserving channel and a
    # singular P.  It is recorded against trial 5 alone, as its own check
    # records it (``_PLANTED_ERRORS`` where it raises), and no other margin
    # moves
    if kernel is not None:
        monkeypatch.setattr(inequalities_mod, "_relent_psd", _relent_psd_at_ground_state(kernel))
    suite = suites_mod.SUITES[name]
    target = suites_mod._digest(suite.draw(RngState(42).child(5), 3))

    def draw(rng, d):
        instance = suite.draw(rng, d)
        return plant(instance) if suites_mod._digest(instance) == target else instance

    planted = suite._replace(draw=draw)
    clean = suites_mod._outcomes(suite, RngState(42), [2, 3], 0, 12)
    outcomes = suites_mod._outcomes(planted, RngState(42), [2, 3], 0, 12)
    for i, ((margin, _), (want, _)) in enumerate(zip(outcomes, clean)):
        if i != 5:
            assert float(margin).hex() == float(want).hex(), i
    margin, instance = outcomes[5]
    try:
        own = planted.check(*instance)
    except (NonConvergence, ValueError, ArithmeticError) as exc:
        own = exc
    if isinstance(own, Exception):
        assert (type(margin), str(margin)) == (type(own), str(own))
        assert name not in _PLANTED_ERRORS or (type(own).__name__, str(own)) == _PLANTED_ERRORS[name]
    else:
        assert float(margin).hex() == float(own).hex()

    monkeypatch.setitem(suites_mod.SUITES, name, planted)
    rep = run_suite(name, trials=12, seed=42)
    bad = [(e.trial, e.error, e.message) for e in rep.errors] + [(f.trial, f.margin) for f in rep.failures]
    if isinstance(own, KernelObstruction):
        assert (rep.skipped_kernel, bad) == (1, [])
    elif isinstance(own, Exception):
        assert bad == [(5, type(own).__name__, str(own))]
    elif own == math.inf:
        assert (rep.skipped_infinite, bad) == (1, [])
    else:
        assert len(bad) == 1 and bad[0][0] == 5
        assert float(bad[0][1]).hex() == float(own).hex() == float(-kernel).hex()


# the stacked-against-looped bit tests; another BLAS kernel must not break them
_BIT_TESTS = (
    "test_matcore.py::test_stacked_linalg_equals_looped_bit_for_bit",
    "test_entropy.py::test_stacked_kernels_equal_per_matrix_calls_bit_for_bit",
    "test_suites.py::test_batched_margins_equal_per_trial_margins_bit_for_bit",
)


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_stacked_bits_hold_under_other_openblas_kernels(coretype):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # numpy builds without this record
        blas = ""
    if "openblas" not in str(blas).lower():
        pytest.skip("numpy is not linked to OpenBLAS")
    here = Path(__file__).parent
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype,
               PYTHONPATH=os.pathsep.join([str(Path(entropion.__file__).parents[1]),
                                           os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           *(str(here / t) for t in _BIT_TESTS)],
                          cwd=here.parent, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-2000:]
