"""Closure: every finite decider ``Yes`` builds a verified realization.

The suite walks ``cli.CONSTRUCT``.  Each construct target has a seeded draw
and the decide tag whose ``Yes`` promises that the target builds.  A draw
mixes interior instances, boundary instances (equal partial sums, equal
totals, unit moduli, repeated values) and boundary instances moved by
+-1e-13.  Every ``Yes`` must return what passed the constructor's own
check: a ``Realization`` (a decomposition for ``convex-decomposition``,
a block description for ``kadison-block``), never ``NotFound`` and never a
``ConvergenceError``.
"""

import time
from fractions import Fraction as F
from importlib import import_module

import numpy as np
import pytest

from diagonalis import cli
from diagonalis.constructors import (
    KadisonBlockDescription,
    Realization,
    construct_thompson,
    construct_williams,
)
from diagonalis.deciders import decide_thompson, decide_williams_3x3
from diagonalis.scalars import INF, QC
from diagonalis.seqspec import ConstantRepeat, FiniteList, OrderedSequenceSpec, seq
from diagonalis.spectra import DenseMatrix

INSTANCES = 200
NUDGES = (0.0, 1e-13, -1e-13)


def _function(entry):
    module, name, _ = entry
    return getattr(import_module(f"diagonalis.{module}"), name)


def _haar(g, n, real=False):
    z = g.standard_normal((n, n))
    if not real:
        z = z + 1j * g.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r)
    return q * (ph / np.abs(ph))


def _block_means(g, x):
    """x (descending) with random runs of neighbours replaced by their mean:
    the partial sums of the result meet those of x at every run's end."""
    out, i = [], 0
    while i < len(x):
        j = i + int(g.integers(1, len(x) - i + 1))
        out += [sum(x[i:j]) / (j - i)] * (j - i)
        i = j
    return out


def _zero_sum(g, n):
    v = g.standard_normal(n)
    return v - v.mean()


# Each draw takes (generator, kind, nudge) and returns the decider's and the
# constructor's positional arguments.  kind cycles through the draw's kinds;
# nudge is 0 or +-1e-13 times the data's scale.

def _schur_horn(g, kind, nudge):
    n = int(g.integers(2, 9))
    lam = sorted(g.standard_normal(n), reverse=True)
    if kind == 0:  # interior
        q = _haar(g, n, real=True)
        d = list(np.diagonal(q @ np.diag(lam) @ q.T))
    elif kind == 1:  # equal partial sums
        d = _block_means(g, lam)
    else:  # repeated values, d a permutation of lam; exact when not nudged
        lam = sorted(np.round(lam), reverse=True)
        d = list(g.permutation(lam))
        if not nudge:
            lam, d = [F(int(x)) for x in lam], [F(int(x)) for x in d]
            return (lam, d), (lam, d)
    # half the nudges keep the totals equal, the others move them
    shift = _zero_sum(g, n) if g.integers(2) else g.standard_normal(n)
    d = [float(x) for x in np.array(d) + nudge * shift]
    return (lam, d), (lam, d)


def _projection_diagonal(g, kind, nudge):
    n = int(g.integers(2, 9))
    r = int(g.integers(0, n + 1))
    if kind == 0:  # interior: the diagonal of a random rank-r projection
        q = _haar(g, n, real=True)[:, :r]
        d = list(np.sum(q * q, axis=1))
    elif kind == 1:  # entries 0 and 1 and a repeated value; exact when not nudged
        m = int(g.integers(1, n + 1))
        p = int(g.integers(0, m + 1))
        ones = int(g.integers(0, n - m + 1))
        d = [F(1)] * ones + [F(p, m)] * m + [F(0)] * (n - m - ones)
        if not nudge:
            d = [d[i] for i in g.permutation(n)]
            return ([1] * (ones + p) + [0] * (n - ones - p), d), (d,)
    else:  # equal partial sums
        d = _block_means(g, [1.0] * r + [0.0] * (n - r))
    d = [float(x) for x in np.array(d) + nudge * _zero_sum(g, n)]
    if g.integers(2):
        d[int(g.integers(n))] += nudge
    d = [float(x) for x in g.permutation(d)]
    r = round(sum(d))
    return ([1] * r + [0] * (n - r), d), (d,)


def _kadison(g, kind, nudge):
    _, (d,) = _projection_diagonal(g, kind, nudge)
    zero = d[0] * 0
    spec = seq(FiniteList(tuple(d)), ConstantRepeat(zero, INF), ConstantRepeat(zero + 1, INF))
    return (spec,), (spec,)


def _zero_diagonal(g, kind, nudge):
    n = int(g.integers(2, 7))
    if kind == 0:  # interior: complex Ginibre
        a = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
    elif kind == 1:  # real symmetric
        a = g.standard_normal((n, n))
        a = a + a.T
    elif kind == 2:  # diagonal with repeated, collinear entries
        a = np.diag(np.round(g.standard_normal(n))).astype(complex)
    else:  # normal, eigenvalues of unit modulus
        u = _haar(g, n)
        a = u @ np.diag(np.exp(2j * np.pi * np.arange(n) / n)) @ u.conj().T
    a = a - np.trace(a) / n * np.eye(n)
    a[0, 0] += nudge * max(1.0, np.linalg.norm(a))
    spec = OrderedSequenceSpec(tuple(complex(x) for x in np.diagonal(a)), (), "complex", False)
    return (spec,), (DenseMatrix(a),)


def _thompson(g, kind, nudge):
    n = int(g.integers(2, 9))
    s = np.sort(g.uniform(0.0, 3.0, n))[::-1]
    if g.integers(4) == 0:  # repeated values and zeros
        s = np.sort(np.round(s))[::-1]
    if kind == 0:  # interior
        t = np.abs(np.diagonal(_haar(g, n) @ np.diag(s) @ _haar(g, n)))
    elif kind == 1:  # equal totals: three permutations of s, mixed
        w = g.dirichlet([1.0, 1.0, 1.0])
        t = sum(wi * s[g.permutation(n)] for wi in w)
    elif kind == 2:  # on the last inequality's face
        t = g.uniform(0.0, s[0], n - 1)
        t = np.append(t, max(0.0, t.sum() - s[:-1].sum() + s[-1]))
    else:  # equal partial sums: |d| a permutation of s
        t = s[g.permutation(n)]
    t = np.abs(t + nudge * max(1.0, s[0]) * g.standard_normal(n))
    if g.integers(2):
        d = list(t * g.choice([-1.0, 1.0], n))
    else:
        d = list(t * np.exp(2j * np.pi * g.uniform(size=n)))
    return (list(s), d), (list(s), d)


def _unitary(g, kind, nudge):
    n = int(g.integers(2, 9))
    if kind == 0:  # interior: a Haar unitary's diagonal
        d = np.diagonal(_haar(g, n))
    else:
        gaps = g.uniform(0.0, 1.0, n)
        if kind == 1:  # Horn's face: the largest deficit is the sum of the others
            gaps[0] = min(1.0, gaps[1:].sum())
        else:  # unit moduli and repeated values
            gaps = np.where(g.uniform(size=n) < 0.5, 0.0, np.round(gaps, 1))
        moduli = np.clip(1.0 - gaps + nudge * g.standard_normal(n), 0.0, 1.0)
        d = moduli * np.exp(2j * np.pi * g.uniform(size=n))
        if g.integers(2):
            d = moduli * g.choice([-1.0, 1.0], n)
    d = [complex(x) if np.iscomplexobj(d) else float(x) for x in d]
    return (d,), (d,)


def _williams(g, kind, nudge):
    lam = g.standard_normal(3) + 1j * g.standard_normal(3)
    if kind == 3:  # repeated values, or three collinear points
        lam[2] = lam[1] if g.integers(2) else lam[0] + g.uniform(-2.0, 2.0) * (lam[1] - lam[0])
    if kind in (0, 3):  # interior
        u = _haar(g, 3)
    elif kind == 1:  # a zero in the orthostochastic matrix: an edge of the triangle
        u = np.eye(3, dtype=complex)[g.permutation(3)]
        u[1:, 1:] = _haar(g, 2)
    else:  # d a permutation of lam: the vertices
        u = np.eye(3)[g.permutation(3)]
    d = np.diagonal(u @ np.diag(lam) @ u.conj().T)
    d = d + nudge * (_zero_sum(g, 3) + 1j * _zero_sum(g, 3)) * max(1.0, np.abs(lam).max())
    return (list(lam), list(d)), (list(lam), list(d))


# the Yes count a draw must reach: float projection diagonals sit within
# rounding of 0 and 1, and the range check clamps them onto it
MIN_YES = {"kadison-block": 195}

# construct target -> (decide tag, draw, number of kinds)
DRAWS = {
    "schur-horn": ("schur-horn", _schur_horn, 3),
    "convex-decomposition": ("schur-horn", _schur_horn, 3),
    "projection": ("schur-horn", _projection_diagonal, 3),
    "kadison-block": ("kadison", _kadison, 3),
    "zero-diagonal": ("fan", _zero_diagonal, 4),
    "thompson": ("thompson", _thompson, 4),
    "unitary": ("horn-unitary", _unitary, 3),
    "williams": ("williams", _williams, 4),
}


def test_every_construct_target_has_a_draw():
    assert list(DRAWS) == list(cli.CONSTRUCT)


@pytest.mark.parametrize("target", list(cli.CONSTRUCT))
def test_every_yes_builds(target):
    tag, draw, kinds = DRAWS[target]
    decide = _function(cli.DECIDE[tag])
    construct = _function(cli.CONSTRUCT[target])
    yes = 0
    for k in range(INSTANCES):
        g = np.random.default_rng([k, 18])
        decider_args, constructor_args = draw(g, k % kinds, NUDGES[k // kinds % 3])
        if decide(*decider_args).verdict != "Yes":
            continue
        yes += 1
        out = construct(*constructor_args)
        assert isinstance(out, (Realization, KadisonBlockDescription, list)), (k, out)
    assert yes >= MIN_YES.get(target, 100), yes


def _sum_face_pair(k):
    """s and d = B s, B a mix of three permutation matrices: sum |d| = sum s."""
    g = np.random.default_rng([k, 28])
    n = 3 + k % 4
    s = np.sort(g.uniform(0.2, 2.0, n))[::-1]
    d = sum(w * s[g.permutation(n)] for w in g.dirichlet([1.0, 1.0, 1.0]))
    return list(s), list(d)


@pytest.mark.parametrize("s,d", [([3, 2, 1], [2, 2, 2])] + [_sum_face_pair(k) for k in range(20)])
def test_thompson_boundary_instance_builds_fast(s, d):
    assert decide_thompson(s, d).verdict == "Yes"
    start = time.perf_counter()
    out = construct_thompson(s, d)
    elapsed = time.perf_counter() - start
    assert isinstance(out, Realization)
    assert elapsed < 0.05, elapsed
    m = out.matrix.data
    bound = 1e-9 * max(s[0], 1)
    assert np.max(np.abs(np.linalg.svd(m, compute_uv=False) - s)) <= bound
    assert np.max(np.abs(np.diagonal(m) - d)) <= bound


# collinear Williams instances whose lam_0 repeats: the line's direction is
# taken toward the first point unequal to lam_0, or is arbitrary when all are
WILLIAMS_REPEATED = [
    ([1, 1, 3], [1, 2, 2]),
    ([2, 2, 2], [2, 2, 2]),
    ([(1, 1), (1, 1), (3, 2)], [(2, F(3, 2)), (F(3, 2), F(5, 4)), (F(3, 2), F(5, 4))]),
    ([(0, 1), (0, 1), (0, 1)], [(0, 1), (0, 1), (0, 1)]),
]


def _point(v, exact):
    """A real v, or a complex one given as (re, im), as an exact or a float scalar."""
    if isinstance(v, tuple):
        return QC(F(v[0]), F(v[1])) if exact else complex(*v)
    return F(v) if exact else float(v)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("lam,d", WILLIAMS_REPEATED)
def test_williams_repeated_lam0_builds(lam, d, exact):
    lam, d = [_point(v, exact) for v in lam], [_point(v, exact) for v in d]
    dec = decide_williams_3x3(lam, d)
    assert (dec.verdict, dec.certificate["clause"], dec.mode) == \
        ("Yes", "collinear reduction", "exact" if exact else "float")
    m = construct_williams(lam, d).matrix.data
    lam_c, d_c = np.array([complex(v) for v in lam]), np.array([complex(v) for v in d])
    assert np.max(np.abs(np.diagonal(m) - d_c)) <= 1e-12
    assert np.max(np.abs(np.sort_complex(np.linalg.eigvals(m)) - np.sort_complex(lam_c))) <= 1e-12
    assert np.max(np.abs(m @ m.conj().T - m.conj().T @ m)) <= 1e-12
