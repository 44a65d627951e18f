"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import math
import time
from fractions import Fraction as F

import numpy as np

from diagonalis.scalars import INF, XSum
from diagonalis.deciders import (
    classify_trace_set,
    decide_bownik_jasper,
    decide_jlw_unitary,
    decide_kadison,
    decide_schur_horn,
    decide_thompson,
    decide_three_point,
    decide_williams_3x3,
)
from diagonalis.constructors import (
    Realization,
    construct_schur_horn,
    construct_thompson,
    construct_unitary_with_diagonal,
    construct_zero_diagonal_basis,
)
from diagonalis.majorization import approx_p_majorize, majorize_finite, p_majorize
from diagonalis.oracle import (
    Found,
    SearchNotFound,
    rational_majorization_oracle,
    sample_diagonals,
    search_membership,
)
from diagonalis.seqspec import (
    ConstantRepeat,
    FiniteList,
    FiniteSpectrumSpec,
    Geometric,
    TelescopingHarmonic,
    affine_image,
    operator_affine_image,
    seq,
    split_sums,
)
from diagonalis.spectra import DenseMatrix, haar_unitary, verify_kadison_codimension_identity
from diagonalis.deciders import decide_horn_unitary

rng = np.random.default_rng(20260808)


def report(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_schur_horn_round_trip():
    t0 = time.time()
    worst_spec = worst_diag = 0.0
    for k in range(500):
        n = int(rng.integers(2, 13))
        lam = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
        u = haar_unitary(n, seed=int(rng.integers(1 << 31))).data
        s = np.abs(u) ** 2  # random doubly stochastic matrix
        d = s @ lam
        assert decide_schur_horn(list(lam), list(d)).verdict == "Yes", k
        real = construct_schur_horn(list(lam), list(d))
        worst_spec = max(worst_spec, real.residuals["spectral"])
        worst_diag = max(worst_diag, real.residuals["diagonal"])
    elapsed = time.time() - t0
    ok = worst_spec <= 1e-8 and worst_diag <= 1e-10 and elapsed <= 60.0
    report(1, ok, f"500 round trips, spectral {worst_spec:.2e}, diagonal "
                  f"{worst_diag:.2e}, {elapsed:.1f}s")


def test_criterion_02_schur_direction_sampling():
    failures = 0
    for t_idx in range(20):
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = DenseMatrix((a + a.conj().T) / 2)
        lam = list(np.sort(np.linalg.eigvalsh(h.data))[::-1])
        for d in sample_diagonals(h, 500, seed=t_idx):
            if decide_schur_horn(lam, list(d.real)).verdict != "Yes":
                failures += 1
    report(2, failures == 0, f"10^4 Haar samples over 20 hermitian operators, "
                             f"{failures} rejections")


def test_criterion_03_hoffman_counterexample():
    t0 = time.time()
    reject_fail = 0
    search_fail = 0
    for k in range(100):
        while True:
            lam = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            area = abs(((lam[1] - lam[0]) * np.conj(lam[2] - lam[0])).imag)
            if area > 0.1:
                break
        d = [(lam[1] + lam[2]) / 2, (lam[0] + lam[2]) / 2, (lam[0] + lam[1]) / 2]
        if decide_williams_3x3(list(lam), d).verdict != "No":
            reject_fail += 1
        out = search_membership(DenseMatrix(np.diag(lam)), d, tol=1e-6,
                                budget=100_000, seed=k)
        if not isinstance(out, SearchNotFound):
            search_fail += 1
    accept_fail = 0
    for t_idx in range(20):
        lam = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        nmat = DenseMatrix(np.diag(lam))
        for d in sample_diagonals(nmat, 500, seed=1000 + t_idx):
            if decide_williams_3x3(list(lam), list(d)).verdict != "Yes":
                accept_fail += 1
    elapsed = time.time() - t0
    ok = reject_fail == 0 and search_fail == 0 and accept_fail == 0
    report(3, ok, f"midpoint rejections missed {reject_fail}, searches found "
                  f"{search_fail}, sampled acceptances missed {accept_fail}, "
                  f"{elapsed:.1f}s")


def test_criterion_04_kadison():
    d_yes = seq(FiniteList([F(1, 2), F(1, 2)]), ConstantRepeat(F(0), INF))
    d_no = seq(FiniteList([F(1, 3)]), ConstantRepeat(F(0), INF))
    yes = decide_kadison(d_yes)
    no = decide_kadison(d_no)
    ok = (yes.verdict == "Yes" and yes.certificate["a_minus_b"] == F(-1)
          and yes.mode == "exact"
          and no.verdict == "No" and no.certificate["a_minus_b"] == F(1, 3))
    worst = 0.0
    for k in range(1000):
        n = int(rng.integers(2, 13))
        rank = int(rng.integers(0, n + 1))
        u = haar_unitary(n, seed=int(rng.integers(1 << 31))).data
        p = DenseMatrix(u[:, :rank] @ u[:, :rank].conj().T)
        rep = verify_kadison_codimension_identity(p)
        worst = max(worst, rep.residual)
    ok = ok and worst <= 1e-9
    report(4, ok, f"boundary verdicts exact, identity residual {worst:.2e} "
                  f"over 1000 projections")


def test_criterion_05_bownik_jasper_instance():
    points = [F(0), F(1, 3), F(1)]
    d = seq(FiniteList([F(1, 3)]), ConstantRepeat(F(0), INF), ConstantRepeat(F(1), INF))
    out = decide_bownik_jasper(points, d)
    lhs_c, lhs_d = split_sums(d, F(1, 3), ceiling=F(1))
    lhs = (1 - F(1, 3)) * lhs_c.value + F(1, 3) * lhs_d.value
    rhs = (1 - F(1, 3)) * F(1, 3) * 1
    d_quarter = seq(FiniteList([F(1, 4)]), ConstantRepeat(F(0), INF),
                    ConstantRepeat(F(1), INF))
    out_quarter = decide_bownik_jasper(points, d_quarter)
    ok = (out.verdict == "Yes" and out.certificate["N"] == [1]
          and out.certificate["k"] == 0 and out.mode == "exact"
          and lhs == rhs == F(2, 9)
          and out_quarter.verdict == "No")
    report(5, ok, f"certificate (N1,k)=(1,0), r=1 inequality tight at 2/9, "
                  f"quarter variant {out_quarter.verdict}")


def test_criterion_06_p_majorization_ladder():
    t0 = time.time()
    d = seq(TelescopingHarmonic(F(1)))
    lam = seq(Geometric(F(1, 2), F(1, 2)))
    oks = [p_majorize(d, lam, p).verdict == "Holds" for p in (0, 1, 5, INF)]
    agree = (approx_p_majorize(d, lam, INF).verdict
             == p_majorize(d, lam, INF).verdict == "Holds")
    g = seq(Geometric(F(1, 2), F(1, 2)))
    fails = p_majorize(g, g, 1).verdict == "Fails"
    elapsed = time.time() - t0
    ok = all(oks) and agree and fails and elapsed < 1.0
    report(6, ok, f"ladder holds for p in {{0,1,5,inf}}, approx agrees at inf, "
                  f"self fails at p=1, {elapsed * 1000:.0f}ms")


def test_criterion_07_unitary_diagonals():
    no = decide_jlw_unitary(seq(FiniteList([F(1, 2)]), ConstantRepeat(F(1), INF)))
    yes = decide_jlw_unitary(seq(FiniteList([F(1, 2), F(1, 2)]),
                                 ConstantRepeat(F(1), INF)))
    ok = no.verdict == "No" and yes.verdict == "Yes"
    worst_unit = worst_diag = 0.0
    built = 0
    while built < 200:
        n = int(rng.integers(2, 9))
        moduli = rng.uniform(0.0, 1.0, n)
        if decide_horn_unitary(list(moduli)).verdict != "Yes":
            continue
        built += 1
        phases = np.exp(1j * rng.uniform(0, 2 * math.pi, n))
        real = construct_unitary_with_diagonal(list(moduli * phases))
        worst_unit = max(worst_unit, real.residuals["unitarity"])
        worst_diag = max(worst_diag, real.residuals["diagonal"])
    ok = ok and worst_unit <= 1e-9 and worst_diag <= 1e-9
    report(7, ok, f"boundary pair split, 200 constructions: unitarity "
                  f"{worst_unit:.2e}, diagonal {worst_diag:.2e}")


def test_criterion_08_thompson():
    yes = decide_thompson([F(2), F(1)], [F(3, 2), F(7, 5)])
    real = construct_thompson([2, 1], [1.5, 1.4])
    no = decide_thompson([F(2), F(1)], [F(2), F(0)])
    out = search_membership(DenseMatrix.from_rows([[2, 0], [0, 1]]), [2, 0],
                            tol=1e-6, budget=60_000, seed=8)
    ok = (yes.verdict == "Yes" and isinstance(real, Realization)
          and real.residuals["singular"] <= 1e-9
          and real.residuals["diagonal"] <= 1e-9
          and no.verdict == "No" and isinstance(out, SearchNotFound))
    report(8, ok, f"(2,1)/(1.5,1.4) realized at {real.residuals['singular']:.2e}, "
                  f"(2,0) rejected and search exhausted")


def test_criterion_09_zero_diagonal():
    worst_diag = worst_unit = 0.0
    for k in range(200):
        n = int(rng.integers(2, 11))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a -= np.trace(a) / n * np.eye(n)
        real = construct_zero_diagonal_basis(DenseMatrix(a), tol=1e-9)
        scale = max(1.0, float(np.linalg.norm(a)))
        worst_diag = max(worst_diag, real.residuals["diagonal"] / scale)
        worst_unit = max(worst_unit, real.residuals["unitarity"])
    ok = worst_diag <= 1e-9 and worst_unit <= 1e-10
    report(9, ok, f"200 trace-zero matrices: diagonal {worst_diag:.2e}, "
                  f"unitarity {worst_unit:.2e}")


def test_criterion_10_three_point():
    spec = FiniteSpectrumSpec(((F(0), INF), (F(1, 2), INF), (F(1), INF)))
    yes = decide_three_point(spec, seq(ConstantRepeat(F(1, 2), INF)))
    no = decide_three_point(spec, seq(ConstantRepeat(F(0), INF)))
    pad = decide_three_point(spec, seq(ConstantRepeat(F(0), 5),
                                       ConstantRepeat(F(1, 2), INF)))
    a, b = F(7, 3), F(-4)
    spec2 = operator_affine_image(spec, a, b)
    invariant = True
    for d in (seq(ConstantRepeat(F(1, 2), INF)), seq(ConstantRepeat(F(0), INF)),
              seq(ConstantRepeat(F(0), 5), ConstantRepeat(F(1, 2), INF))):
        if (decide_three_point(spec, d).verdict
                != decide_three_point(spec2, affine_image(d, a, b)).verdict):
            invariant = False
    ok = (yes.verdict == "Yes" and no.verdict == "No" and pad.verdict == "Yes"
          and invariant)
    report(10, ok, f"verdicts ({yes.verdict},{no.verdict},{pad.verdict}), "
                   f"affine invariance {invariant}")


def test_criterion_11_ffh_classifier():
    pt = classify_trace_set([(0.0, seq(Geometric(F(1, 2), F(1, 2))))])
    line = classify_trace_set([(math.pi / 2, seq(ConstantRepeat(F(1), INF))),
                               (-math.pi / 2, seq(ConstantRepeat(F(1), INF)))])
    plane = classify_trace_set(
        [(2 * math.pi * k / 3, seq(ConstantRepeat(F(1), INF))) for k in range(3)])
    rot_ok = True
    for alpha in (0.4, 1.9):
        if classify_trace_set([(alpha, seq(Geometric(F(1, 2), F(1, 2))))]).kind != "Point":
            rot_ok = False
        if classify_trace_set(
                [(math.pi / 2 + alpha, seq(ConstantRepeat(F(1), INF))),
                 (-math.pi / 2 + alpha, seq(ConstantRepeat(F(1), INF)))]).kind != "Line":
            rot_ok = False
        if classify_trace_set(
                [(2 * math.pi * k / 3 + alpha, seq(ConstantRepeat(F(1), INF)))
                 for k in range(3)]).kind != "Plane":
            rot_ok = False
    ok = (pt.kind == "Point" and pt.value == 1.0 and line.kind == "Line"
          and plane.kind == "Plane" and rot_ok)
    report(11, ok, f"single ray Point({pt.value}), opposed rays {line.kind}, "
                   f"symmetric rays {plane.kind}, rotation invariant {rot_ok}")


def test_criterion_12_differential_majorization():
    t0 = time.time()
    disagreements = 0
    for k in range(100_000):
        n = int(rng.integers(1, 11))
        d = [F(int(rng.integers(-8, 9)), int(rng.integers(1, 9))) for _ in range(n)]
        lam = [F(int(rng.integers(-8, 9)), int(rng.integers(1, 9))) for _ in range(n)]
        if majorize_finite(d, lam).verdict != rational_majorization_oracle(d, lam):
            disagreements += 1
    elapsed = time.time() - t0
    report(12, disagreements == 0,
           f"10^5 random rational instances, {disagreements} disagreements, {elapsed:.1f}s")
