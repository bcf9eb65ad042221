import math
import tracemalloc

import numpy as np
import pytest

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
        monkeypatch.setattr(suites_mod, name, lambda *args: math.inf)
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
    # built as one np.kron per member
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
    rep = run_suite("holevo_routes", trials=4)
    assert rep.passed
    assert calls == {"inside": 0, "flagged": 4}


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
        lam = (1 - 1e-6) * spec.eigenvalues + 1e-6 / len(spec.eigenvalues)
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
