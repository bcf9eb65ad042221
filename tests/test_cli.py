import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entropion
from entropion import RngState, matrix_to_json, random_density, write_matrix
from entropion.cli import _build_parser, dumps_17g, main


def _strip_runtime(text: str) -> str:
    return re.sub(r'"runtime_ms": [0-9.eE+-]+', '"runtime_ms": X', text)


@pytest.fixture()
def qubit_pair(tmp_path):
    p = tmp_path / "p.json"
    q = tmp_path / "q.json"
    write_matrix(p, np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]]))
    write_matrix(q, np.array([[0.5, -0.15j], [0.15j, 0.5]]))
    return str(p), str(q)


def test_verify_json_passes(tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = main([
        "verify", "--suites", "klein", "--trials", "20", "--seed", "5",
        "--out", str(out),
    ])
    assert rc == 0
    reports = json.loads(out.read_text())
    assert len(reports) == 1
    r = reports[0]
    assert list(r) == [
        "suite", "trials", "seed", "tol", "pass", "worst_margin",
        "skipped_infinite", "failures", "runtime_ms",
    ]
    assert r["suite"] == "klein"
    assert r["pass"] is True
    assert r["failures"] == []
    # progress line lands on stderr, data stays clean on --out
    assert "klein: pass" in capsys.readouterr().err


def test_verify_multiple_suites_comma_and_space(tmp_path):
    out = tmp_path / "r.json"
    rc = main([
        "verify", "--suites", "klein,homogeneity", "scalar_identity",
        "--trials", "5", "--out", str(out),
    ])
    assert rc == 0
    names = [r["suite"] for r in json.loads(out.read_text())]
    assert names == ["klein", "homogeneity", "scalar_identity"]


def test_verify_csv_format(tmp_path):
    out = tmp_path / "r.csv"
    rc = main([
        "verify", "--suites", "klein", "--trials", "10",
        "--format", "csv", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == (
        "suite,trials,seed,tol,pass,worst_margin,skipped_infinite,"
        "n_failures,runtime_ms"
    )
    fields = lines[1].split(",")
    assert fields[0] == "klein"
    assert fields[4] == "true"


def test_verify_margin_failure_exits_two(tmp_path):
    # tol=0 turns route-agreement noise into reported failures
    out = tmp_path / "r.json"
    rc = main([
        "verify", "--suites", "relent_routes", "--dims", "3",
        "--trials", "10", "--tol", "0", "--out", str(out),
    ])
    assert rc == 2
    r = json.loads(out.read_text())[0]
    assert r["pass"] is False
    assert len(r["failures"]) > 0
    f = r["failures"][0]
    assert set(f) == {"trial", "margin", "digest"}


def test_verify_unknown_suite_exits_one(capsys):
    rc = main(["verify", "--suites", "nope"])
    assert rc == 1
    assert "unknown suite" in capsys.readouterr().err


def test_verify_bad_dims_exits_one(capsys):
    rc = main(["verify", "--suites", "klein", "--dims", "2,x"])
    assert rc == 1


def test_usage_error_exits_one(capsys):
    assert main([]) == 1
    assert main(["verify"]) == 1  # --suites is required
    assert main(["verify", "--suites", "klein", "--trials", "abc"]) == 1


def test_successive_main_calls_match_a_fresh_process(capsys):
    args = ["verify", "--suites", "klein,relent_routes", "--trials", "6",
            "--seed", "3", "--dims", "2"]
    env = dict(os.environ, PYTHONPATH=str(Path(entropion.__file__).parents[1]))
    fresh = subprocess.run([sys.executable, "-m", "entropion.cli", *args],
                           capture_output=True, text=True, env=env, check=True)
    outs = []
    for before in (["verify", "--suites", "klein", "--trials", "abc"],
                   ["compute", "entropy"],
                   [],
                   args + ["--format", "csv", "--seed", "4"]):
        main(before)  # a usage error or other options must not leak into the next call
        capsys.readouterr()
        assert main(args) == 0
        outs.append(capsys.readouterr().out)
    assert _build_parser() is _build_parser()
    assert [_strip_runtime(o) for o in outs] == [_strip_runtime(fresh.stdout)] * 4


def test_verify_deterministic_bytes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["verify", "--suites", "relent_routes,klein", "--trials", "15",
            "--seed", "9"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert _strip_runtime(a.read_text()) == _strip_runtime(b.read_text())


def test_env_seed_fallback(tmp_path, monkeypatch):
    explicit = tmp_path / "explicit.json"
    via_env = tmp_path / "env.json"
    assert main(["verify", "--suites", "klein", "--trials", "10",
                 "--seed", "123", "--out", str(explicit)]) == 0
    monkeypatch.setenv("ENTROPION_SEED", "123")
    assert main(["verify", "--suites", "klein", "--trials", "10",
                 "--out", str(via_env)]) == 0
    assert _strip_runtime(explicit.read_text()) == _strip_runtime(via_env.read_text())


def test_env_seed_rejected_when_malformed(monkeypatch, capsys):
    monkeypatch.setenv("ENTROPION_SEED", "not-a-number")
    rc = main(["verify", "--suites", "klein", "--trials", "5"])
    assert rc == 1
    assert "ENTROPION_SEED" in capsys.readouterr().err


def test_compute_entropy(tmp_path, capsys):
    f = tmp_path / "rho.json"
    write_matrix(f, np.diag([0.3, 0.7]))
    assert main(["compute", "entropy", str(f)]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["quantity"] == "entropy"
    expected = -(0.3 * math.log(0.3) + 0.7 * math.log(0.7))
    assert obj["value"] == pytest.approx(expected, abs=1e-15)


def test_compute_relent_qubit_oracle(qubit_pair, capsys):
    p, q = qubit_pair
    assert main(["compute", "relent", p, q]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["value"] == pytest.approx(0.11058206830213947, abs=1e-13)


def test_compute_relent_infinite_as_string(tmp_path, capsys):
    p = tmp_path / "p.json"
    q = tmp_path / "q.json"
    write_matrix(p, np.diag([0.5, 0.5]))
    write_matrix(q, np.diag([1.0, 0.0]))
    assert main(["compute", "relent", str(p), str(q)]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["value"] == "inf"


def test_compute_bures(qubit_pair, capsys):
    p, q = qubit_pair
    assert main(["compute", "bures", p, q]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["value"] == pytest.approx(0.23439753350094890, abs=1e-12)


def test_compute_chi(tmp_path, capsys):
    ens = {
        "weights": [0.3, 0.7],
        "states": [
            matrix_to_json(np.diag([1.0, 0.0])),
            matrix_to_json(np.diag([0.0, 1.0])),
        ],
    }
    f = tmp_path / "ens.json"
    f.write_text(json.dumps(ens))
    assert main(["compute", "chi", str(f)]) == 0
    obj = json.loads(capsys.readouterr().out)
    expected = -(0.3 * math.log(0.3) + 0.7 * math.log(0.7))
    assert obj["value"] == pytest.approx(expected, abs=1e-14)


def test_compute_arity_and_missing_file(tmp_path, capsys):
    f = tmp_path / "rho.json"
    write_matrix(f, np.diag([0.5, 0.5]))
    assert main(["compute", "relent", str(f)]) == 1  # needs two files
    assert main(["compute", "entropy", str(tmp_path / "absent.json")]) == 1


def test_compute_17_digit_float_format(tmp_path, capsys):
    f = tmp_path / "rho.json"
    write_matrix(f, np.diag([0.3, 0.7]))
    assert main(["compute", "entropy", str(f)]) == 0
    raw = capsys.readouterr().out
    m = re.search(r'"value": ([0-9.eE+-]+)', raw)
    assert m
    # serialized at 17 significant digits: round-trips to the same float
    assert float(m.group(1)) == float(format(float(m.group(1)), ".17g"))
    assert m.group(1) == format(float(m.group(1)), ".17g")


def test_convergence_csv(qubit_pair, tmp_path):
    p, q = qubit_pair
    out = tmp_path / "c.csv"
    assert main(["convergence", p, q, "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "step,abs_error"
    steps = [float(l.split(",")[0]) for l in lines[1:]]
    errs = [float(l.split(",")[1]) for l in lines[1:]]
    # steps halve down to the one the integral route runs, whose row is
    # that route's value
    assert len(steps) > 3 and all(a == 2.0 * b for a, b in zip(steps, steps[1:]))
    p_m, q_m = entropion.read_matrix(p), entropion.read_matrix(q)
    data = entropion.entropy._IntegralData(p_m, q_m)
    assert steps[-1] == entropion.entropy._step(data.half_width[0])
    value = entropion.relative_entropy_integral(p_m, q_m)
    assert errs[-1] == abs(value - entropion.relative_entropy_spectral_kernel(p_m, q_m))
    assert errs[-1] < 1e-12
    # the error falls until it reaches the double-precision floor
    for a, b in zip(errs, errs[1:]):
        assert b < a or a < 1e-13
    assert main(["convergence", p, q, "--max-panels", "64"]) == 1


@pytest.mark.parametrize("s_p, s_q", [(1e160, 1e160), (1.0, 1e-160)])
def test_convergence_at_a_scale_past_the_float_range_of_its_weights(tmp_path, s_p, s_q):
    # at a common scale of 1e160, or with P 1e160 times Q, the squared
    # weights would overflow; the study runs on the pair over a power of
    # two, a bounded number of finite rows
    p = tmp_path / "p.json"
    q = tmp_path / "q.json"
    out = tmp_path / "c.csv"
    write_matrix(p, s_p * np.diag([1.0, 2.0]))
    write_matrix(q, s_q * np.array([[1.5, 0.3], [0.3, 1.0]]))
    assert main(["convergence", str(p), str(q), "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    assert 3 < len(rows) < 20
    h = entropion.relative_entropy(entropion.read_matrix(p), entropion.read_matrix(q))
    assert float(rows[-1][1]) < 1e-12 * h


def test_convergence_rejects_infinite_pair(tmp_path, capsys):
    p = tmp_path / "p.json"
    q = tmp_path / "q.json"
    write_matrix(p, np.diag([0.5, 0.5]))
    write_matrix(q, np.diag([1.0, 0.0]))
    assert main(["convergence", str(p), str(q)]) == 1
    assert "infinite" in capsys.readouterr().err


def test_dumps_17g_shapes():
    assert dumps_17g({"a": 1.5, "b": [1, 2, 3]}) == (
        '{\n  "a": 1.5,\n  "b": [1, 2, 3]\n}'
    )
    assert dumps_17g([]) == "[]"
    assert dumps_17g({}) == "{}"
    assert dumps_17g(float("inf")) == '"inf"'
    assert dumps_17g(float("-inf")) == '"-inf"'
    assert dumps_17g(float("nan")) == '"nan"'
    # 17 significant digits survive a JSON round trip exactly
    x = 0.1 + 0.2
    assert json.loads(dumps_17g({"x": x}))["x"] == x
