"""Tests of the benchmark itself (kept out of the library's test suite).

    python3 -m pytest perfbench/bench_selftest.py -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, tracer, workloads as W  # noqa: E402

WORKLOADS = sorted(W.ROUNDS)


def _inputs(workload, seed, count):
    rnd = W.round_of(workload)
    return b"\n".join(W.canonical(W.make_instance(workload, seed, i, rnd)[1])
                      for i in range(count))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(workload):
    count = len(W.round_of(workload))
    first = _inputs(workload, 7, count)
    assert first == _inputs(workload, 7, count)
    assert first != _inputs(workload, 8, count)


def test_every_class_is_in_a_round():
    used = {name for slots in W.ROUNDS.values() for name, _ in slots}
    assert used == set(W.CLASSES)


def test_planted_wrong_verdicts_are_flagged():
    assert W.checks.verdict("yes", "No").status == "wrong"
    assert W.checks.verdict("no", "Holds").status == "wrong"
    assert W.checks.verdict("yes", "Unknown").status == "unknown"
    assert W.checks.verdict("yes", "YesModuloKernel").status == "ok"
    x = W.request("yes", "decide", "kadison", "--d", W.spec(W.const(0, "inf")))
    planted = (1, json.dumps({"verdict": "No"}))
    assert W.check_cli(x, planted).status == "wrong"
    assert W.check_cli(x, (2, json.dumps({"verdict": "No"}))).status == "wrong"  # exit code
    assert W.check_cli(x, (0, json.dumps({"verdict": "Yes"}))).status == "ok"


def test_real_answers_pass_and_perturbed_realizations_fail():
    rng = np.random.default_rng(3)
    x = W.gen_sh(rng, 6)
    verdict, real = W.run_sh(x)
    assert W.check_sh(x, (verdict, real)).status == "ok"
    bent = real.matrix.data.copy()
    bent[2, 2] += 1e-7
    assert checks.hermitian_realization(bent, x["lam"], x["d"]).status == "wrong"

    u = W.gen_unitary(rng, 5)
    verdict, real = W.run_unitary(u)
    assert W.check_unitary(u, (verdict, real)).status == "ok"
    bent = real.matrix.data.copy()
    bent[0, 0] += 1e-6
    assert checks.unitary_with_diagonal(bent, u["d"]).status == "wrong"

    t = W.gen_thompson(rng, (3, False))
    verdict, real = W.run_thompson(t)
    if not isinstance(real, W.C.NotFound):
        bent = real.matrix.data.copy()
        bent[1, 1] += 1e-6
        assert checks.singular_realization(bent, t["s"], t["d"]).status == "wrong"


def test_exact_witness_and_decomposition_checks_catch_tampering():
    rng = np.random.default_rng(5)
    x = W.gen_cvx(rng, 6)
    parts = W.run_cvx(x)
    assert W.check_cvx(x, parts).status == "ok"
    w, p = parts[0]
    assert W.check_cvx(x, [(2 * w, p)] + parts[1:]).status == "wrong"
    c, r = W.Q(1), W.Q(99, 100)
    m = 644
    lhs, rhs = c * (1 - r ** m), c * (1 - W.Q(1, m + 1))
    assert W._check_slow_witness({"c": "1", "r": "99/100"}, m, lhs, rhs).status == "ok"
    assert W._check_slow_witness({"c": "1", "r": "99/100"}, m, lhs + 1, rhs).status == "wrong"


def test_self_time_of_nested_spans():
    # A [0, 10] holds B [1, 4] and C [5, 9]; C holds D [6, 7]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    assert tracer.self_times(start, end, parent).tolist() == [3.0, 3.0, 3.0, 1.0]


def test_traced_calls_nest_through_module_references():
    from diagonalis import spectra
    rec = tracer.Recorder()
    undo = tracer.install(rec)
    try:
        rec.active = True
        spectra.singular_values(spectra.DenseMatrix(np.diag([3.0, 1.0])))
        rec.active = False
    finally:
        tracer.uninstall(undo)
    a = rec.arrays()
    names = [rec.names[i] for i in a["name"]]
    assert names == ["spectra.singular_values", "spectra.hermitian_eigenvalues",
                     "spectra.hermitian_eigensystem"]
    assert a["parent"].tolist() == [-1, 0, 1]
    selfs = tracer.self_times(a["start"], a["end"], a["parent"])
    assert np.all(selfs >= 0)
    assert selfs.sum() == pytest.approx(a["end"][0] - a["start"][0])
    assert not hasattr(spectra.hermitian_eigensystem, "__wrapped__")
