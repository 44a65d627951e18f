import cmath
import math
import random
from fractions import Fraction as F
from itertools import combinations

import numpy as np
import pytest

from diagonalis.scalars import INF, QC, PreconditionError
from diagonalis.deciders import (
    _barycentric,
    _inconic,
    _lattice_solve,
    check_arveson,
    classify_trace_set,
    decide_williams_3x3,
)
from diagonalis.seqspec import ConstantRepeat, FiniteList, Geometric, seq
from diagonalis.spectra import (
    DenseMatrix,
    essential_codimension_finite,
    haar_unitary,
    verify_kadison_codimension_identity,
    verify_normal_codimension_identity,
)

rng = np.random.default_rng(777)


def cube_roots():
    return [cmath.exp(2j * math.pi * k / 3) for k in range(3)]


class TestWilliams:
    def test_centroid_circle(self):
        lam = cube_roots()
        out = decide_williams_3x3(lam, [0.0, 0.5, -0.5])
        assert out.verdict == "Yes"
        assert abs(out.certificate["ellipse_center"]) <= 1e-9

    def test_centroid_pair_outside(self):
        lam = cube_roots()
        assert decide_williams_3x3(lam, [0.0, 0.7, -0.7]).verdict == "No"

    def test_hoffman_midpoints(self):
        lam = cube_roots()
        d = [(lam[1] + lam[2]) / 2, (lam[0] + lam[2]) / 2, (lam[0] + lam[1]) / 2]
        assert decide_williams_3x3(lam, d).verdict == "No"

    def test_vertex_case(self):
        lam = cube_roots()
        assert decide_williams_3x3(lam, [lam[0], lam[1], lam[2]]).verdict == "Yes"
        # symmetric pair strictly inside the opposite edge
        mid = (lam[1] + lam[2]) / 2
        t = 0.3 * (lam[2] - lam[1])
        assert decide_williams_3x3(lam, [lam[0], mid + t, mid - t]).verdict == "Yes"
        # pair symmetric about the wrong point
        assert decide_williams_3x3(lam, [lam[0], mid + t, mid - 2 * t]).verdict == "No"

    def test_exact_rational_triangle(self):
        lam = [QC(F(0), F(0)), QC(F(1), F(0)), QC(F(0), F(1))]
        centroid = QC(F(1, 3), F(1, 3))
        # trace constraint pins d2 + d3
        rest = QC(F(1), F(1)) - centroid
        d2 = rest / QC(F(2), F(0)) + QC(F(1, 10), F(0))
        d3 = rest - d2
        out = decide_williams_3x3(lam, [centroid, d2, d3])
        assert out.mode == "exact"
        assert out.verdict in ("Yes", "No")
        # oracle: compare against the float path on the same data
        fl = decide_williams_3x3([complex(v) for v in lam],
                                 [complex(centroid), complex(d2), complex(d3)])
        assert fl.verdict == out.verdict

    def test_edge_case_trace_consistency(self):
        lam = [0j, 2 + 0j, 1 + 2j]
        d1 = 0.5 * (lam[0] + lam[1])  # on the bottom edge
        reflected = lam[0] + lam[1] - d1
        d2 = 0.25 * reflected + 0.75 * lam[2]
        d3 = reflected + lam[2] - d2
        assert decide_williams_3x3(lam, [d1, d2, d3]).verdict == "Yes"
        assert decide_williams_3x3(lam, [d1, d2, d3 + 0.05]).verdict == "No"

    def test_collinear_reduces_to_schur_horn(self):
        lam = [0j, 1 + 1j, 2 + 2j]
        out = decide_williams_3x3(lam, [0.5 + 0.5j, 1.5 + 1.5j, 1 + 1j])
        assert out.verdict == "Yes"
        assert out.certificate["clause"] == "collinear reduction"
        assert decide_williams_3x3(lam, [2.5 + 2.5j, 0.25 + 0.25j, 0.25 + 0.25j]).verdict == "No"

    def test_sampled_diagonals_accepted(self):
        lam = np.array([0.3 + 0.1j, 1.2 - 0.4j, -0.5 + 0.9j])
        n = DenseMatrix(np.diag(lam))
        for k in range(200):
            u = haar_unitary(3, seed=k).data
            d = np.diagonal(u @ n.data @ u.conj().T)
            assert decide_williams_3x3(list(lam), list(d)).verdict == "Yes", k

    def test_thin_triangle_diagonal_pinned(self):
        # a sampled diagonal the unit-norm SVD conic of the float path
        # rejected: its ratio q(d2)/q(center) was -2.9e-7
        lam = [1.8318639369533638 + 1.010162342843781j,
               -2.0178380318601317 - 0.5527618867529014j,
               -0.0410198268929277 + 0.2496059192435454j]
        d = [-0.07424744711438439 + 0.23627304884308217j,
             0.5874050380698047 + 0.504802553879808j,
             -0.7401515127551155 - 0.0340692273884651j]
        assert decide_williams_3x3(lam, d).verdict == "Yes"

    @staticmethod
    def thin_triangle_verdicts(heights, tag, triangles, samples):
        """Verdicts on Haar-sampled diagonals of triangles near 3+3i whose
        height relative to their base is 10**uniform(*heights); every one is
        a true diagonal."""
        verdicts = {"Yes": 0, "No": 0, "Unknown": 0}
        for k in range(triangles):
            g = np.random.default_rng([k, tag])
            a, b = g.standard_normal(2) + 1j * g.standard_normal(2) + (3 + 3j)
            c = a + g.uniform(-1, 2) * (b - a) + 1j * 10 ** g.uniform(*heights) * (b - a)
            lam = np.array([a, b, c])
            z = g.standard_normal((samples, 3, 3)) + 1j * g.standard_normal((samples, 3, 3))
            q, r = np.linalg.qr(z)
            ph = np.diagonal(r, axis1=1, axis2=2)
            u = q * (ph / np.abs(ph))[:, None, :]
            for d in np.einsum("kij,j,kij->ki", u.conj(), lam, u):
                verdicts[decide_williams_3x3(list(lam), list(d)).verdict] += 1
        return verdicts

    def test_thin_triangles_never_no(self):
        # 300 triangles of relative height 1e-4 to 1e-1, 40 diagonals each;
        # the flat test measured against 1 instead of the triangle's size
        # left 120 of them Unknown
        verdicts = self.thin_triangle_verdicts((-4, -1), 13, 300, 40)
        assert verdicts["No"] == 0
        assert verdicts["Unknown"] == 0

    def test_near_collinear_triangles_never_no(self):
        verdicts = self.thin_triangle_verdicts((-9, -5), 17, 200, 20)
        assert verdicts["No"] == 0
        assert verdicts["Yes"] > 0

    def test_small_triangle_far_from_origin_is_decided(self):
        # |lam2 - lam1| = 0.033 and |lam3 - lam1| = 0.022 at distance 4 from 0:
        # a cross product of 8.4e-7 is no rounding effect at that size
        lam = [2.2928261368934977 + 3.373339351347737j,
               2.3174608763187714 + 3.3959763027984478j,
               2.276895518954039 + 3.358734617700112j]
        d = [2.313628799731607 + 3.392455944224877j,
             2.2855710733937924 + 3.3666896700652007j,
             2.2879826590409094 + 3.3689046575562207j]
        assert decide_williams_3x3(lam, d).verdict == "Yes"

    def test_tiny_right_triangle_is_not_flat(self):
        # legs of 1e-6 at distance 1 from 0; the three edge midpoints are no
        # diagonal, and the collinear reduction could not tell
        e = 1e-6
        lam = [1, 1 + e, 1 + 1j * e]
        d = [1 + e / 2, 1 + 1j * e / 2, 1 + e / 2 + 1j * e / 2]
        out = decide_williams_3x3(lam, d)
        assert out.verdict == "No"
        assert out.certificate["clause"] == "edge case"

    @pytest.mark.usefixtures("no_exact_float")
    @pytest.mark.parametrize("lam, d, verdict", [
        ([1, 1, 1], [0, 1, 2], "No"),  # only the scalar matrix has these eigenvalues
        ([1, 1, 1], [1, 1, 1], "Yes"),
        ([1, 1, 2], [5, -2, 1], "No"),
        ([1, 1, 2], [1.5, 1, 1.5], "Yes"),
    ])
    def test_repeated_eigenvalue(self, lam, d, verdict):
        assert decide_williams_3x3([F(v) for v in lam], [F(v) for v in d]).verdict == verdict
        assert decide_williams_3x3([complex(v) for v in lam],
                                   [complex(v) for v in d]).verdict == verdict

    def test_swap_invariance(self):
        lam = cube_roots()
        d = [0.1 + 0.05j, 0.4 - 0.2j]
        d.append(sum(lam) - d[0] - d[1])
        a = decide_williams_3x3(lam, [d[0], d[1], d[2]]).verdict
        b = decide_williams_3x3(lam, [d[0], d[2], d[1]]).verdict
        assert a == b
        perm = [lam[2], lam[0], lam[1]]
        c = decide_williams_3x3(perm, [d[0], d[1], d[2]]).verdict
        assert a == c


def rational_interior(g, bound=20):
    """A nondegenerate rational triangle, a point strictly inside it, and the
    point's barycentric coordinates."""
    while True:
        num, den = g.integers(-bound, bound + 1, size=6), g.integers(1, 10, size=6)
        xy = [F(int(a), int(b)) for a, b in zip(num, den)]
        lam = [QC(xy[k], xy[k + 3]) for k in range(3)]
        e1, e2 = lam[1] - lam[0], lam[2] - lam[0]
        if e1.re * e2.im != e1.im * e2.re:
            break
    wts = [int(x) for x in g.integers(1, 12, size=3)]
    bc = [F(x, sum(wts)) for x in wts]
    d1 = QC(sum(b * v.re for b, v in zip(bc, lam)), sum(b * v.im for b, v in zip(bc, lam)))
    return lam, d1, bc


def det_bareiss(m):
    """Determinant of a square integer matrix by fraction-free elimination."""
    m = [row[:] for row in m]
    sign, prev = 1, 1
    for k in range(len(m) - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, len(m)) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def conic_solve_reference(lam, d1, bc, p):
    """Q(p)/Q(center) for the conic found the long way: the null vector of the
    6x6 rational system that puts the conic through each trace of the
    isotomic conjugate of d1 = bc, tangent there to its side."""
    u, v, w = bc
    conj = (v * w, u * w, u * v)
    rows = []
    for i, j in ((1, 2), (0, 2), (0, 1)):
        t = (lam[i] * conj[i] + lam[j] * conj[j]) / QC(conj[i] + conj[j], F(0))
        s = lam[j] - lam[i]
        rows.append([t.re * t.re, t.re * t.im, t.im * t.im, t.re, t.im, F(1)])
        rows.append([2 * t.re * s.re, t.im * s.re + t.re * s.im, 2 * t.im * s.im,
                     s.re, s.im, F(0)])
    scales = [math.lcm(*(x.denominator for x in row)) for row in rows]
    rows = [[int(x * k) for x in row] for row, k in zip(rows, scales)]
    # the system has rank 5: the null vector is the cofactor row of a dropped row
    for drop in range(6):
        rest = rows[:drop] + rows[drop + 1:]
        coef = [(-1) ** j * det_bareiss([r[:j] + r[j + 1:] for r in rest]) for j in range(6)]
        if any(coef):
            break
    assert not any(sum(x * y for x, y in zip(row, coef)) for row in rows)
    a, b, c, dx, dy, f = coef
    assert b * b - 4 * a * c < 0  # an ellipse

    def conic(z):
        x, y = z.re, z.im
        return a * x * x + b * x * y + c * y * y + dx * x + dy * y + f

    center = (lam[0] + lam[1] + lam[2] - d1) * QC(F(1, 2), F(0))
    return conic(p) / conic(center)


@pytest.mark.usefixtures("no_exact_float")
class TestWilliamsExact:
    """The closed-form inscribed ellipse, on rational triangles, exactly."""

    @pytest.mark.parametrize("seed", range(4))
    def test_inconic_touches_each_side_at_its_trace(self, seed):
        g = np.random.default_rng([seed, 31])
        for _ in range(50):
            lam, d1, bc = rational_interior(g)
            assert _barycentric(d1, *lam) == tuple(bc)
            u, v, w = bc
            conj = (v * w, u * w, u * v)
            for i, j in ((1, 2), (0, 2), (0, 1)):
                t = (lam[i] * conj[i] + lam[j] * conj[j]) / QC(conj[i] + conj[j], F(0))
                side = lam[j] - lam[i]
                assert _inconic(bc, _barycentric(t, *lam)) == 0
                # a double root: Q is even about the trace along the side
                ahead = _inconic(bc, _barycentric(t + side, *lam))
                assert ahead == _inconic(bc, _barycentric(t - side, *lam)) != 0

    @pytest.mark.parametrize("seed", range(4))
    def test_inconic_center_is_critical_and_ellipse(self, seed):
        g = np.random.default_rng([seed, 32])
        for _ in range(50):
            lam, d1, bc = rational_interior(g)
            assert _barycentric(d1, *lam) == tuple(bc)
            center = (lam[0] + lam[1] + lam[2] - d1) * QC(F(1, 2), F(0))

            def q(e):
                return _inconic(bc, _barycentric(center + e, *lam))

            steps = [QC(F(1), F(0)), QC(F(0), F(1)), QC(F(1), F(1))]
            for e in steps:  # the gradient vanishes: Q is even about the center
                assert q(e) == q(-e)
            # the quadratic part is positive definite: an ellipse, center inside
            a, c = q(steps[0]) - q(0), q(steps[1]) - q(0)
            b = q(steps[2]) - q(0) - a - c
            assert a > 0 and 4 * a * c - b * b > 0 and q(0) < 0

    def test_matches_conic_solve_on_exact_corpus(self):
        g = np.random.default_rng(33)
        seen = {"Yes": 0, "No": 0}
        for _ in range(3000):
            lam, d1, bc = rational_interior(g, bound=6)
            center = (lam[0] + lam[1] + lam[2] - d1) * QC(F(1, 2), F(0))
            off = g.integers(-8, 9, size=2)
            d2 = center + QC(F(int(off[0]), 8), F(int(off[1]), 8))
            d = [d1, d2, lam[0] + lam[1] + lam[2] - d1 - d2]
            out = decide_williams_3x3(lam, d)
            want = "Yes" if conic_solve_reference(lam, d1, bc, d2) >= 0 else "No"
            assert (out.verdict, out.certificate["clause"]) == (want, "interior case")
            seen[want] += 1
        assert min(seen.values()) >= 300


class TestArveson:
    X = [QC(F(0), F(0)), QC(F(1), F(0)), QC(F(0), F(1))]

    def test_balanced_pair(self):
        d = seq(FiniteList([F(1, 2), F(1, 2)]), ConstantRepeat(F(0), INF))
        out = check_arveson(self.X, d)
        assert out.verdict == "Yes"
        cs = out.certificate["c"]
        assert sum(cs) == 0

    def test_single_half(self):
        d = seq(FiniteList([F(1, 2)]), ConstantRepeat(F(0), INF))
        assert check_arveson(self.X, d).verdict == "No"

    def test_values_in_vertices(self):
        d = seq(FiniteList([F(1), F(1)]), ConstantRepeat(F(0), INF), field="real")
        out = check_arveson(self.X, d)
        assert out.verdict == "Yes"

    def test_geometric_tail_deviation(self):
        # entries 2^-k accumulate at vertex 0 with deviation sum 1
        d = seq(Geometric(F(1, 2), F(1, 2)), ConstantRepeat(F(0), INF))
        out = check_arveson(self.X, d)
        assert out.verdict == "Yes"
        assert out.certificate["deviation_sum"] == QC(F(1), F(0))

    def test_repeated_vertex_with_infinite_stream(self):
        d = seq(Geometric(F(1, 2), F(1, 2)), ConstantRepeat(F(0), INF))
        once = check_arveson(self.X, d)
        twice = check_arveson(self.X + [self.X[0]], d)
        assert once.verdict == twice.verdict == "Yes"
        assert once.certificate["deviation_sum"] == twice.certificate["deviation_sum"]
        single = check_arveson([self.X[0], self.X[0]], d)
        assert single.certificate["deviation_sum"] == QC(F(1), F(0))

    def test_interior_limit_rejected(self):
        d = seq(Geometric(F(1, 8), F(1, 2), F(1, 4)))
        with pytest.raises(PreconditionError):
            check_arveson(self.X, d)

    def test_float_search(self):
        x = [0.0, 1.0, 1j]
        d = seq(FiniteList([0.25, 0.75]), ConstantRepeat(0.0, INF), exact=False)
        out = check_arveson(x, d)
        assert out.verdict == "Yes"

    def test_assignment_tie_breaking_is_immaterial(self):
        # 1/2 ties between vertices 0 and 1; any summable assignment differs
        # by a zero-sum lattice element, so the verdict matches either way
        d = seq(FiniteList([F(1, 2), F(1, 2), F(1)]), ConstantRepeat(F(0), INF))
        out = check_arveson(self.X, d)
        assert out.verdict == "Yes"
        target = QC(F(2), F(0))
        got = sum((QC(F(c), F(0)) * v for c, v in zip(out.certificate["c"], self.X)),
                  QC(F(0), F(0)))
        dev = out.certificate["deviation_sum"]
        assert dev == got


def _determinantal_divisors(cols):
    """gcd of the entries and gcd of the 2x2 minors of a two-row integer
    matrix given by its columns (0 when there are none)."""
    entries = math.gcd(*(v for c in cols for v in c))
    minors = math.gcd(*(a[0] * b[1] - a[1] * b[0] for a, b in combinations(cols, 2)))
    return entries, minors


def _random_lattice_case(g):
    """0-4 rational plane generators and a target; half of the targets are
    integer combinations of the generators."""
    def rational():
        return F(g.randint(-6, 6), g.choice([1, 1, 2, 3, 4, 6, 9]))

    gens = [(rational(), rational()) for _ in range(g.randint(0, 4))]
    if len(gens) >= 2 and g.random() < 0.3:  # the last parallel to the first
        k = F(g.randint(-3, 3), g.choice([1, 2, 3]))
        gens[-1] = (k * gens[0][0], k * gens[0][1])
    if g.random() < 0.5:
        xs = [g.randint(-5, 5) for _ in gens]
        target = (sum((x * a for x, (a, _) in zip(xs, gens)), F(0)),
                  sum((x * b for x, (_, b) in zip(xs, gens)), F(0)))
    else:
        target = (rational(), rational())
    return gens, target


@pytest.mark.usefixtures("no_exact_float")
def test_lattice_membership_matches_determinantal_divisors():
    """``_lattice_solve`` returns an exact integer solution, or None exactly
    when the target is outside the integer span: scaled to integers, t is in
    the span of the columns of A when appending t to A leaves the gcd of the
    entries and the gcd of the 2x2 minors unchanged."""
    g = random.Random(2023)
    found = missed = 0
    for _ in range(2400):
        gens, target = _random_lattice_case(g)
        x = _lattice_solve(gens, target)
        if x is not None:
            found += 1
            assert len(x) == len(gens) and all(isinstance(c, int) for c in x)
            assert (sum((c * a for c, (a, _) in zip(x, gens)), F(0)),
                    sum((c * b for c, (_, b) in zip(x, gens)), F(0))) == target
            continue
        missed += 1
        den = math.lcm(*(v.denominator for v in (*target, *(c for a in gens for c in a))))
        cols = [(int(a * den), int(b * den)) for a, b in gens]
        t = (int(target[0] * den), int(target[1] * den))
        assert _determinantal_divisors(cols) != _determinantal_divisors(cols + [t]), \
            (gens, target)
    assert found >= 1000 and missed >= 500, (found, missed)


def _unit(re, im):
    return QC(F(re), F(im))


ONE, I = _unit(1, 0), _unit(0, 1)
ROTATIONS = [_unit(F(3, 5), F(4, 5)), _unit(F(5, 13), F(12, 13)), _unit(F(-8, 17), F(15, 17))]


@pytest.mark.usefixtures("no_exact_float")
class TestTraceSet:
    # unit QC directions with exact magnitudes: classified exactly
    def test_point(self):
        out = classify_trace_set([(ONE, seq(Geometric(F(1, 2), F(1, 2))))])
        assert out.kind == "Point"
        assert out.value == ONE

    def test_line(self):
        out = classify_trace_set([(I, seq(ConstantRepeat(F(1), INF))),
                                  (-I, seq(ConstantRepeat(F(1), INF)))])
        assert out.kind == "Line"
        assert out.direction == I and out.offset == 0

    def test_plane(self):
        rays = [(u, seq(ConstantRepeat(F(1), INF)))
                for u in (ONE, _unit(F(-3, 5), F(4, 5)), _unit(F(-3, 5), F(-4, 5)))]
        assert classify_trace_set(rays).kind == "Plane"

    def test_empty(self):
        out = classify_trace_set([(I, seq(ConstantRepeat(F(1), INF)))])
        assert out.kind == "Empty"

    def test_global_rotation_invariance(self):
        for r in ROTATIONS:
            line = classify_trace_set([(r * I, seq(ConstantRepeat(F(1), INF))),
                                       (-(r * I), seq(ConstantRepeat(F(1), INF)))])
            assert line.kind == "Line" and line.direction == r * I
            plane = classify_trace_set(
                [(r * u, seq(ConstantRepeat(F(1), INF)))
                 for u in (ONE, _unit(F(-3, 5), F(4, 5)), _unit(F(-3, 5), F(-4, 5)))])
            assert plane.kind == "Plane"
            pt = classify_trace_set([(r, seq(Geometric(F(1, 2), F(1, 2))))])
            assert pt.kind == "Point" and pt.value == r

    def test_mixed_summable_rays_ignored(self):
        rays = [(ONE, seq(ConstantRepeat(F(1), INF))),
                (-ONE, seq(ConstantRepeat(F(1), INF))),
                (_unit(F(3, 5), F(4, 5)), seq(Geometric(F(1), F(1, 3))))]
        out = classify_trace_set(rays)
        # the summable ray adds 3/2 (3 + 4i)/5, whose normal part is 6/5
        assert out.kind == "Line" and out.direction == ONE and out.offset == F(6, 5)

    def test_exact_collinearity_is_not_rounded(self):
        # u is 2e-13 rad above 1: within the float path's 1e-12, 1, u and -1
        # are collinear (a Line); exactly, u lies strictly on one side
        t = F(1, 10**13)
        u = _unit((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))
        rays = [(v, seq(ConstantRepeat(F(1), INF))) for v in (ONE, u, -ONE)]
        assert classify_trace_set(rays).kind == "Empty"


class TestTraceSetFloat:
    # angles give float directions: the float path and its fixed 1e-12
    def test_point(self):
        out = classify_trace_set([(0.0, seq(Geometric(F(1, 2), F(1, 2))))])
        assert out.kind == "Point"
        assert abs(out.value - 1.0) == 0.0

    def test_line(self):
        up = (math.pi / 2, seq(ConstantRepeat(F(1), INF)))
        down = (-math.pi / 2, seq(ConstantRepeat(F(1), INF)))
        out = classify_trace_set([up, down])
        assert out.kind == "Line"

    def test_plane(self):
        rays = [(2 * math.pi * k / 3, seq(ConstantRepeat(F(1), INF))) for k in range(3)]
        assert classify_trace_set(rays).kind == "Plane"

    def test_empty(self):
        out = classify_trace_set([(math.pi / 2, seq(ConstantRepeat(F(1), INF)))])
        assert out.kind == "Empty"

    def test_global_rotation_invariance(self):
        for alpha in (0.3, 1.1, 2.7):
            line = classify_trace_set(
                [(math.pi / 2 + alpha, seq(ConstantRepeat(F(1), INF))),
                 (-math.pi / 2 + alpha, seq(ConstantRepeat(F(1), INF)))])
            assert line.kind == "Line"
            plane = classify_trace_set(
                [(2 * math.pi * k / 3 + alpha, seq(ConstantRepeat(F(1), INF)))
                 for k in range(3)])
            assert plane.kind == "Plane"
            pt = classify_trace_set([(alpha, seq(Geometric(F(1, 2), F(1, 2))))])
            assert pt.kind == "Point"
            assert abs(pt.value - cmath.exp(1j * alpha)) <= 1e-12

    def test_near_collinear_within_tolerance_is_a_line(self):
        # the float counterpart of TestTraceSet's exact collinearity case
        rays = [(v, seq(ConstantRepeat(F(1), INF))) for v in (0.0, 2e-13, math.pi)]
        assert classify_trace_set(rays).kind == "Line"

    def test_mixed_summable_rays_ignored(self):
        rays = [(0.0, seq(ConstantRepeat(F(1), INF))),
                (math.pi, seq(ConstantRepeat(F(1), INF))),
                (math.pi / 3, seq(Geometric(F(1), F(1, 3))))]
        assert classify_trace_set(rays).kind == "Line"


def random_projection(n, rank, seed):
    u = haar_unitary(n, seed=seed).data
    p = u[:, :rank] @ u[:, :rank].conj().T
    return DenseMatrix(p)


class TestCodimension:
    def test_diagonal_case(self):
        p = DenseMatrix.diagonal([1, 1, 0, 0])
        q = DenseMatrix.diagonal([1, 0, 0, 0])
        assert essential_codimension_finite(p, q) == 1
        assert essential_codimension_finite(p, p) == 0

    def test_rotation_invariance(self):
        p = random_projection(6, 1, seed=5)
        q = DenseMatrix.diagonal([1, 0, 0, 0, 0, 0])
        assert essential_codimension_finite(p, q) == 0

    def test_kadison_identity_hand_case(self):
        p = DenseMatrix.from_rows([[0.5, 0.5], [0.5, 0.5]])
        rep = verify_kadison_codimension_identity(p)
        assert rep.ok
        assert rep.lhs == -1.0 and rep.rhs == -1.0

    def test_kadison_identity_diagonal(self):
        rep = verify_kadison_codimension_identity(DenseMatrix.diagonal([1, 0]))
        assert rep.ok and rep.lhs == 0.0

    def test_kadison_identity_random(self):
        for k in range(200):
            n = 2 + k % 11
            rank = k % (n + 1)
            rep = verify_kadison_codimension_identity(random_projection(n, rank, seed=k))
            assert rep.residual <= 1e-9, (k, rep.residual)

    def test_normal_identity_diagonal(self):
        n = DenseMatrix.diagonal([1 + 1j, 2, 2, -1])
        rep = verify_normal_codimension_identity(n, n)
        assert rep.ok and abs(rep.lhs) <= 1e-12

    def test_normal_identity_rank_move(self):
        u = haar_unitary(4, seed=13).data
        n = DenseMatrix(u @ np.diag([0, 0, 1, 1]) @ u.conj().T)
        n_prime = DenseMatrix.diagonal([0, 1, 1, 1])
        rep = verify_normal_codimension_identity(n, n_prime)
        assert rep.ok
        assert abs(rep.lhs - (np.trace(n.data) - 3)) <= 1e-10

    def test_normal_identity_random_thousand(self):
        eigsets = [np.array([0, 1, 1j, 1 + 1j]), np.array([2, -1, 0.5j, 2]),
                   np.array([0, 0, 3, -2j])]
        worst = 0.0
        for k in range(1000):
            base = eigsets[k % len(eigsets)]
            perm = rng.permutation(4)
            u = haar_unitary(4, seed=10_000 + k).data
            n = DenseMatrix(u @ np.diag(base) @ u.conj().T)
            n_prime = DenseMatrix.diagonal(base[perm])
            rep = verify_normal_codimension_identity(n, n_prime)
            worst = max(worst, rep.residual)
        assert worst <= 1e-8

    def test_normal_identity_scaling(self):
        u = haar_unitary(4, seed=29).data
        base = u @ np.diag([0, 1j, 1j, 2]) @ u.conj().T
        for c in (1.0, 2.5):
            rep = verify_normal_codimension_identity(
                DenseMatrix(c * base), DenseMatrix.diagonal([0, 0, 2 * c, 1j * c]))
            assert rep.ok
            assert abs(rep.lhs - c * (np.trace(base) - (2 + 1j))) <= 1e-8
