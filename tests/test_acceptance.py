"""Acceptance gate: every primary claim of the library, executed at its
stated tolerance, one printed verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines as they happen; without -s they still appear for failing criteria.
The whole module is sized to finish in well under a minute single
threaded.
"""

import json
import math
import re

import numpy as np
import pytest

from entropion import (
    ConvexityInstance,
    RngState,
    check_joint_convexity,
    check_ssa,
    random_density,
    random_matrix,
    run_suite,
    scalar_log_identity,
    tensor,
)
from entropion.cli import main


def _verdict(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _suite_ok(name, dims, trials, tol, seed=42):
    rep = run_suite(name, dims=dims, trials=trials, seed=seed, tol=tol)
    detail = f"{name} worst={rep.worst_margin:.3e} skipped={rep.skipped_infinite}"
    return rep.passed, detail


def test_c1_resolvent_oracle():
    ok, detail = _suite_ok("resolvent_oracle", (2, 3, 4), 100, 1e-10)
    assert _verdict("C1 resolvent-vs-dense", ok, detail)


def test_c2_three_route_agreement():
    ok, detail = _suite_ok("relent_routes", (2, 3, 4, 5), 200, 1e-8)
    assert _verdict("C2 three-route relative entropy", ok, detail)


def test_c2_scalar_identities_fixed_points():
    worst = 0.0
    for w in (0.1, 0.5, 1.0, 2.0, 10.0):
        lhs, rhs1, rhs2 = scalar_log_identity(w)
        target = -math.log(w)
        worst = max(worst, abs(lhs - target), abs(rhs1 - target), abs(rhs2 - target))
    ok = worst <= 1e-10
    assert _verdict("C2 scalar integral identities", ok, f"worst |gap|={worst:.3e}")


def test_c3_joint_convexity():
    ok, detail = _suite_ok("joint_convexity", (2, 3, 4, 5), 1000, 1e-9)
    assert _verdict("C3 joint convexity", ok, detail)


def test_c3_equality_instances():
    # identical pairs across all slots: convexity holds with equality
    rng = RngState(42)
    worst = 0.0
    for i in range(50):
        d = 2 + i % 4
        g = random_matrix(d, d, rng.child(2 * i))
        p = g @ g.conj().T / d
        g = random_matrix(d, d, rng.child(2 * i + 1))
        q = g @ g.conj().T / d + 0.05 * np.eye(d)
        m = check_joint_convexity(ConvexityInstance([0.25, 0.75], [(p, q), (p, q)]))
        worst = max(worst, abs(m.margin))
    ok = worst <= 1e-12
    assert _verdict("C3 equality margin", ok, f"worst |margin|={worst:.3e}")


def test_c4_ssa_random():
    ok, detail = _suite_ok("ssa", (2,), 500, 1e-9)
    assert _verdict("C4 strong subadditivity", ok, detail)


def test_c4_ssa_random_d3():
    ok, detail = _suite_ok("ssa", (3,), 500, 1e-9)
    assert _verdict("C4 strong subadditivity, d = 3", ok, detail)


def test_c4_ssa_product_states_saturate():
    rng = RngState(43)
    worst = 0.0
    for i in range(50):
        rho_ab = random_density(4, 4, rng.child(2 * i))
        rho_c = random_density(2, 2, rng.child(2 * i + 1))
        m = check_ssa(tensor(rho_ab, rho_c), (2, 2, 2))
        worst = max(worst, abs(m.primary))
    ok = worst <= 1e-9
    assert _verdict("C4 product-state equality", ok, f"worst |margin|={worst:.3e}")


def test_c4_pure_states_zero_functional():
    # on pure tripartite states the concave functional F vanishes
    rng = RngState(44)
    worst = 0.0
    for i in range(50):
        v = random_matrix(8, 1, rng.child(i)).ravel()
        v = v / np.linalg.norm(v)
        m = check_ssa(np.outer(v, v.conj()), (2, 2, 2))
        worst = max(worst, abs(m.alt))
    ok = worst <= 1e-9
    assert _verdict("C4 F(pure)=0", ok, f"worst |F|={worst:.3e}")


def test_c5_monotonicity_modes():
    results = []
    for name in ("monotonicity_dephase", "monotonicity_ptrace", "monotonicity_general"):
        dims = (2,) if name == "monotonicity_ptrace" else (2, 3)
        results.append(_suite_ok(name, dims, 300, 1e-9))
    ok = all(r[0] for r in results)
    detail = "; ".join(r[1] for r in results)
    assert _verdict("C5 data processing", ok, detail)


def test_c5_unitary_equality():
    ok, detail = _suite_ok("monotonicity_unitary", (2, 3), 100, 1e-10)
    assert _verdict("C5 unitary equality", ok, detail)


def test_c6_operator_schwarz_family():
    results = [
        _suite_ok("operator_schwarz", (2, 3), 300, 1e-9),
        _suite_ok("cp_schwarz", (2, 3), 200, 1e-9),
        _suite_ok("block_contraction", (2, 3), 500, 1e-9),
    ]
    ok = all(r[0] for r in results)
    detail = "; ".join(r[1] for r in results)
    assert _verdict("C6 Schwarz family", ok, detail)


def test_c7_holevo():
    results = [
        _suite_ok("holevo_identities", (2, 3), 200, 1e-9),
        _suite_ok("holevo_bound", (2, 3), 200, 1e-9),
        _suite_ok("holevo_chain", (2,), 100, 1e-9),
        _suite_ok("holevo_routes", (2, 3), 100, 1e-9),
    ]
    ok = all(r[0] for r in results)
    detail = "; ".join(r[1] for r in results)
    assert _verdict("C7 Holevo bounds", ok, detail)


def test_c8_structural_identities():
    results = [
        _suite_ok("condent_identity", (2, 3), 200, 1e-9),
        _suite_ok("klein", (2, 3), 500, 1e-9),
        _suite_ok("homogeneity", (2, 3), 500, 1e-9),
        _suite_ok("dephase_z", (2, 3, 4, 5, 6, 7, 8), 35, 1e-12),
        _suite_ok("ancilla", (2, 3), 200, 1e-9),
        _suite_ok("purification", (2, 3), 200, 1e-10),
    ]
    ok = all(r[0] for r in results)
    detail = "; ".join(r[1] for r in results)
    assert _verdict("C8 structural identities", ok, detail)


def test_c9_determinism(tmp_path):
    args = [
        "verify",
        "--suites", "relent_routes,joint_convexity,ssa",
        "--dims", "2",
        "--trials", "25",
        "--seed", "42",
    ]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    rc_a = main(args + ["--out", str(a)])
    rc_b = main(args + ["--out", str(b)])
    strip = lambda t: re.sub(r'"runtime_ms": [0-9.eE+-]+', "", t)
    ok = rc_a == 0 and rc_b == 0 and strip(a.read_text()) == strip(b.read_text())
    # sanity: the stripped text is still real JSON-shaped content
    assert json.loads(a.read_text())[0]["suite"] == "relent_routes"
    assert _verdict("C9 determinism", ok, "byte-identical reports modulo runtime_ms")
