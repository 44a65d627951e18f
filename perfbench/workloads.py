"""Workloads: operation classes, their seeded inputs, the calls, the checks.

An instance is one operation class applied to inputs drawn from
``numpy.random.default_rng([seed, index])``; the inputs are plain data
(floats, complex numbers, exact rationals, CLI argument lists) made before
the instance is timed.  Each workload repeats a fixed *round* of
(class, size) slots, so every run holds the same mix of classes and sizes
and only the drawn values change with the seed.  The round is weighted so
that no class takes much more than half of a round's time.

Library functions are always looked up on their module at call time
(``C.construct_schur_horn``), so a traced run sees the wrapped versions.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction as Q

import numpy as np

from diagonalis import cli as CLI
from diagonalis import constructors as C
from diagonalis import deciders as D
from diagonalis import majorization as M
from diagonalis import oracle as O
from diagonalis import scalars as X
from diagonalis import seqspec as S
from diagonalis import spectra as SP

from . import checks

SEARCH_TOL = 1e-6
SEARCH_BUDGET = 5000      # candidate evaluations per oracle search
SAMPLE_TRIALS = 40        # Haar samples per sampling instance
TWO_TAIL_HORIZON = 3000   # scan depth for the two-tail request
SCAN_999_HORIZON = M.HORIZON_DEFAULT


@dataclass(frozen=True)
class OpClass:
    name: str
    gen: object     # (rng, size) -> inputs
    run: object     # inputs -> output (the timed part)
    check: object   # (inputs, output) -> checks.Result


# ---------------------------------------------------------------------------
# shared helpers


def haar(rng, n, real=False):
    """Haar unitary (orthogonal if real) from a QR of a Ginibre sample."""
    z = rng.standard_normal((n, n))
    if not real:
        z = z + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def cplx(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rat(rng, lo, hi, den):
    """Rational p/q with q in 1..den and lo <= p/q <= hi."""
    q = int(rng.integers(1, den + 1))
    return Q(int(rng.integers(math.ceil(lo * q), math.floor(hi * q) + 1)), q)


def pos_rat(rng, hi, den):
    """Rational in (0, hi] with denominator at most den."""
    q = int(rng.integers(math.ceil(1 / hi), den + 1))
    return Q(int(rng.integers(1, math.floor(hi * q) + 1)), q)


def mix(x, y, t):
    """T-transform of the pair (x, y): the diagonal of a 2x2 rotation of diag(x, y)."""
    return t * x + (1 - t) * y, (1 - t) * x + t * y


def declined(fn, *args, **kwargs):
    """Call fn; a PreconditionError (the library declining) becomes a marker."""
    try:
        return fn(*args, **kwargs)
    except X.PreconditionError as exc:
        return ("declined", str(exc))


# ---------------------------------------------------------------------------
# finite_realize: float instances feasible by construction, decided then realized


def gen_sh(rng, n):
    lam = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
    d = (np.abs(haar(rng, n)) ** 2) @ lam
    return {"lam": lam.tolist(), "d": d.tolist()}


def run_sh(x):
    dec = D.decide_schur_horn(x["lam"], x["d"])
    if dec.verdict != "Yes":
        return dec.verdict, None
    return dec.verdict, C.construct_schur_horn(x["lam"], x["d"])


def check_sh(x, out):
    verdict, real = out
    res = checks.verdict("yes", verdict)
    if res.status != "ok":
        return res
    return checks.hermitian_realization(real.matrix.data, x["lam"], x["d"])


def gen_thompson(rng, size):
    n, real = size
    s = np.sort(rng.uniform(0.2, 2.0, n))[::-1]
    m = haar(rng, n, real) @ np.diag(s) @ haar(rng, n, real).conj().T
    d = np.diagonal(m)
    return {"s": s.tolist(), "d": (d.real if real else d).tolist()}


def run_thompson(x):
    dec = D.decide_thompson(x["s"], x["d"])
    if dec.verdict != "Yes":
        return dec.verdict, None
    return dec.verdict, C.construct_thompson(x["s"], x["d"])


def check_thompson(x, out):
    verdict, real = out
    res = checks.verdict("yes", verdict)
    if res.status != "ok":
        return res
    if isinstance(real, C.NotFound):
        return checks.unknown("construct_thompson returned NotFound", notfound=1)
    return checks.singular_realization(real.matrix.data, x["s"], x["d"])


def gen_unitary(rng, n):
    if n == 2:
        # Haar 2x2 diagonals lie within rounding of Horn's equality case;
        # (m, +-m) is exactly on it and exactly a unitary diagonal.
        m = float(rng.uniform(0.05, 0.95))
        return {"d": [m, m if rng.integers(2) else -m]}
    return {"d": np.diagonal(haar(rng, n)).tolist()}


def run_unitary(x):
    dec = D.decide_horn_unitary(x["d"])
    if dec.verdict != "Yes":
        return dec.verdict, None
    return dec.verdict, C.construct_unitary_with_diagonal(x["d"])


def check_unitary(x, out):
    verdict, real = out
    res = checks.verdict("yes", verdict)
    if res.status != "ok":
        return res
    return checks.unitary_with_diagonal(real.matrix.data, x["d"])


def gen_zero_diag(rng, n):
    a = cplx(rng, (n, n))
    a -= np.trace(a) / n * np.eye(n)
    return {"t": a.tolist()}


def run_zero_diag(x):
    return C.construct_zero_diagonal_basis(SP.DenseMatrix(np.array(x["t"])), tol=1e-9)


def check_zero_diag(x, out):
    return checks.zero_diagonal_basis(x["t"], out.basis.data)


def gen_attain(rng, n):
    m = cplx(rng, (n, n))
    v = cplx(rng, n)
    v /= np.linalg.norm(v)
    return {"m": m.tolist(), "z": complex(np.vdot(v, m @ v))}


def run_attain(x):
    return declined(SP.attain_numerical_range_vector,
                    SP.DenseMatrix(np.array(x["m"])), x["z"])


def check_attain(x, out):
    if isinstance(out, tuple):
        return checks.unknown(f"declined a point of W(M): {out[1]}")
    return checks.attained(x["m"], x["z"], out)


# ---------------------------------------------------------------------------
# oracle_crosscheck: Haar sampling and unitary-orbit search at a fixed budget


def gen_sample_herm(rng, n):
    a = cplx(rng, (n, n))
    return {"h": ((a + a.conj().T) / 2).tolist(), "seed": int(rng.integers(1 << 31))}


def run_sample_herm(x):
    h = np.array(x["h"])
    lam = np.sort(np.linalg.eigvalsh(h))[::-1].tolist()
    ds = O.sample_diagonals(SP.DenseMatrix(h), SAMPLE_TRIALS, seed=x["seed"])
    return ds, [D.decide_schur_horn(lam, d.real.tolist()).verdict for d in ds]


def _sample_sanity(trace, ds):
    """Sampled diagonals must keep the trace (a check on the sampler itself)."""
    for d in ds:
        if abs(complex(np.sum(d)) - trace) > 1e-9 * max(1.0, abs(trace)):
            return checks.wrong("sampled diagonal does not keep the trace")
    return None


def _all_yes(verdicts):
    for v in verdicts:
        res = checks.verdict("yes", v)
        if res.status != "ok":
            return res
    return checks.ok()


def check_sample_herm(x, out):
    ds, verdicts = out
    return (_sample_sanity(complex(np.trace(np.array(x["h"]))), ds)
            or _all_yes(verdicts))


def gen_sample_normal3(rng, _):
    return {"lam": cplx(rng, 3).tolist(), "seed": int(rng.integers(1 << 31))}


def run_sample_normal3(x):
    ds = O.sample_diagonals(SP.DenseMatrix(np.diag(x["lam"])), SAMPLE_TRIALS, seed=x["seed"])
    return ds, [D.decide_williams_3x3(x["lam"], d.tolist()).verdict for d in ds]


def check_sample_normal3(x, out):
    ds, verdicts = out
    return _sample_sanity(complex(sum(x["lam"])), ds) or _all_yes(verdicts)


def gen_search_reach(rng, kind):
    t = np.diag(cplx(rng, 3)) if kind == "normal" else cplx(rng, (3, 3))
    v = haar(rng, 3)
    d = np.diagonal(v.conj().T @ t @ v)
    return {"t": t.tolist(), "d": d.tolist(), "seed": int(rng.integers(1 << 31))}


def run_search(x):
    return O.search_membership(SP.DenseMatrix(np.array(x["t"])), x["d"], tol=SEARCH_TOL,
                               budget=SEARCH_BUDGET, seed=x["seed"])


def check_search_reach(x, out):
    if isinstance(out, O.SearchNotFound):
        return checks.unknown("reachable target not found within the budget",
                              reachable=1, found=0)
    res = checks.search_witness(x["t"], x["d"], out.unitary.data, SEARCH_TOL)
    res.extras.update(reachable=1, found=int(res.status == "ok"))
    return res


def gen_search_unreach(rng, _):
    while True:
        lam = cplx(rng, 3)
        if abs(((lam[1] - lam[0]) * np.conj(lam[2] - lam[0])).imag) > 0.1:
            break
    d = [(lam[1] + lam[2]) / 2, (lam[0] + lam[2]) / 2, (lam[0] + lam[1]) / 2]
    return {"t": np.diag(lam).tolist(), "lam": lam.tolist(), "d": [complex(v) for v in d],
            "seed": int(rng.integers(1 << 31))}


def run_search_unreach(x):
    return D.decide_williams_3x3(x["lam"], x["d"]).verdict, run_search(x)


def check_search_unreach(x, out):
    # Hoffman: edge midpoints of a proper triangle are never a diagonal.
    verdict, found = out
    if isinstance(found, O.Found):
        return checks.wrong("search claims a witness for an unreachable target")
    return checks.verdict("no", verdict)


# ---------------------------------------------------------------------------
# symbolic_exact: exact requests through cli.run, and exact finite calls


def qs(x):
    return str(Q(x))


def fin(*values):
    return {"kind": "finite", "values": [qs(v) for v in values]}


def geo(a, r):
    return {"kind": "geometric", "first": qs(a), "ratio": qs(r)}


def tel(c):
    return {"kind": "telescoping", "scale": qs(c)}


def const(v, count):
    return {"kind": "const", "value": qs(v), "count": count}


def spec(*streams):
    return json.dumps({"field": "real", "exact": True, "streams": list(streams)},
                      sort_keys=True, separators=(",", ":"))


def request(truth, *argv, witness=None):
    return {"argv": list(argv), "truth": truth, "witness": witness}


def run_cli(x):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = CLI.run(x["argv"])
    text = out.getvalue()
    if code == CLI.EXIT_ERROR:
        raise RuntimeError(f"cli error: {text.strip()}")
    return code, text


_EXIT = {**{v: 0 for v in checks.YES}, **{v: 1 for v in checks.NO},
         **{v: 2 for v in checks.UNDECIDED}}


def check_cli(x, out):
    code, text = out
    body = json.loads(text)
    got = body.get("verdict")
    io_bytes = {"bytes_in": sum(len(a.encode()) for a in x["argv"]),
                "bytes_out": len(text.encode())}
    if _EXIT.get(got) != code:
        return checks.wrong(f"exit code {code} for verdict {got!r}", **io_bytes)
    res = checks.verdict(x["truth"], got)
    if res.status == "ok" and x["witness"] is not None:
        w = body["witness"]
        res = _check_slow_witness(x["witness"], int(w["index"]), Q(w["lhs"]), Q(w["rhs"]))
    res.extras.update(io_bytes)
    return res


def _check_slow_witness(w, m, got_lhs, got_rhs):
    """Witness of geo(c(1-r), r) vs tel(c): index m with c(1-r^m) > c(1-1/(m+1))."""
    c, r = Q(w["c"]), Q(w["r"])
    lhs, rhs = c * (1 - r ** m), c * (1 - Q(1, m + 1))
    if got_lhs != lhs or got_rhs != rhs or not lhs > rhs:
        return checks.wrong(f"witness at index {m} is not a partial-sum violation")
    return checks.ok()


def maj(kind, truth, d, lam, *extra, witness=None):
    return request(truth, "decide", "majorization", "--kind", kind, "--d", d,
                   "--lambda", lam, *extra, witness=witness)


def _head(rng, k, hi=2):
    return [pos_rat(rng, hi, 6) for _ in range(k)]


def _tail(rng):
    if rng.integers(2):
        return geo(pos_rat(rng, Q(1, 2), 8), Q(int(rng.integers(1, 4)), 4))
    return tel(pos_rat(rng, 1, 6))


def _t_pair(rng, head):
    """Indices of two distinct head values and a mixing weight strictly inside (0, 1)."""
    while True:
        i, j = (int(v) for v in rng.choice(len(head), 2, replace=False))
        if head[i] != head[j]:
            return i, j, Q(int(rng.integers(1, 8)), 8)
        head[j] = head[j] + Q(1, 7)


def gen_cli_weak(rng, variant):
    head = _head(rng, int(rng.integers(2, 6)))
    tail = _tail(rng)
    lam = spec(fin(*head), tail)
    if variant == "identity":
        return maj("weak", "yes", lam, lam)
    if variant == "const":
        extra = const(pos_rat(rng, 1, 6), int(rng.integers(2, 5)))
        both = spec(fin(*head), extra, tail)
        return maj("weak", "yes", both, both)
    if variant == "decrease":
        d = list(head)
        d[0] = d[0] * Q(int(rng.integers(1, 4)), 4)
        return maj("weak", "yes", spec(fin(*d), tail), lam)
    if variant == "increase":
        d = list(head)
        d[0] = d[0] + pos_rat(rng, 1, 5)
        return maj("weak", "no", spec(fin(*d), tail), lam)
    i, j, t = _t_pair(rng, head)
    lam = spec(fin(*head), tail)
    d = list(head)
    d[i], d[j] = mix(head[i], head[j], t)
    if variant == "t_transform":
        return maj("weak", "yes", spec(fin(*d), tail), lam)
    return maj("weak", "no", lam, spec(fin(*d), tail))  # reversed T-transform


def _signed_head(rng, k):
    head = [rat(rng, -2, 2, 6) for _ in range(k)]
    return [v if v != 0 else Q(1, 3) for v in head]


def gen_cli_l1(rng, variant):
    head = _signed_head(rng, int(rng.integers(3, 6)))
    head += [pos_rat(rng, 2, 6), pos_rat(rng, 2, 6), -pos_rat(rng, 2, 6)]
    tails = (geo(pos_rat(rng, Q(1, 2), 8), Q(1, 2)), geo(-pos_rat(rng, Q(1, 2), 8), Q(1, 3)))
    lam = spec(fin(*head), *tails)
    if variant == "identity":
        return maj("l1", "yes", lam, lam)
    if variant == "total":
        d = list(head)
        d[0] = d[0] + (pos_rat(rng, 1, 5) if rng.integers(2) else -pos_rat(rng, 1, 5))
        return maj("l1", "no", spec(fin(*d), *tails), lam)
    pos = [k for k, v in enumerate(head) if v > 0]
    while True:
        i, j = (int(v) for v in rng.choice(pos, 2, replace=False))
        if head[i] != head[j]:
            break
        head[j] += Q(1, 5)
    lam = spec(fin(*head), *tails)
    d = list(head)
    d[i], d[j] = mix(head[i], head[j], Q(int(rng.integers(1, 8)), 8))
    if variant == "t_transform":
        return maj("l1", "yes", spec(fin(*d), *tails), lam)
    return maj("l1", "no", lam, spec(fin(*d), *tails))


P_LEVELS = ("0", "1", "5", "inf")


def gen_cli_p(rng, variant):
    kind, level = variant
    p = P_LEVELS[int(rng.integers(len(P_LEVELS)))] if level is None else level
    c = pos_rat(rng, 3, 4)
    r = Q(1, int(rng.integers(2, 6)))
    ladder_d, ladder_l = spec(tel(c)), spec(geo(c * (1 - r), r))
    if kind == "ladder":
        # tel(c) < geo(c(1-r), r) for r <= 1/2 at every p (criterion 6 family)
        return maj(("p", "approx-p")[int(rng.integers(2))], "yes", ladder_d, ladder_l, "--p", p)
    if kind == "reversed":
        return maj(("p", "approx-p")[int(rng.integers(2))], "no", ladder_l, ladder_d, "--p", p)
    same = spec(geo(c * (1 - r), r)) if kind == "self_geo" else spec(tel(c))
    # d = lambda with all entries positive: p = 0 holds, every shift p >= 1 fails
    return maj("p", "yes" if p == "0" else "no", same, same, "--p", p)


SLOW_RATIOS = (Q(49, 50), Q(99, 100), Q(199, 200))


def gen_cli_slow(rng, r):
    c = (Q(1), Q(2), Q(1, 2))[int(rng.integers(3))] * Q(int(rng.integers(2, 5)), 3)
    return maj("weak", "no", spec(geo(c * (1 - r), r)), spec(tel(c)),
               witness={"c": qs(c), "r": qs(r)})


def gen_cli_twotail(rng, _):
    r1 = Q(1, int(rng.integers(2, 4)))
    r2 = Q(1, int(rng.integers(4, 7)))
    both = spec(geo(pos_rat(rng, 1, 4), r1), geo(pos_rat(rng, 1, 4), r2))
    return maj("weak", "yes", both, both, "--horizon", str(TWO_TAIL_HORIZON))


def _pairs(rng, k):
    out = []
    for _ in range(k):
        x = Q(int(rng.integers(1, 9)), 9)
        out += [x, 1 - x]
    return out


def _affine(rng):
    return Q(int(rng.integers(1, 7)), int(rng.integers(1, 4))), rat(rng, -3, 3, 4)


def _three_point(a, b, mid):
    pts = [[qs(a * v + b), "inf"] for v in (Q(0), mid, Q(1))]
    return json.dumps({"variant": "finite_spectrum", "points": pts}, separators=(",", ":"))


def gen_cli_theorem(rng, variant):
    if variant.startswith("kadison"):
        zeros_ones = (const(0, "inf"), const(1, "inf"))
        if variant == "kadison_pairs":
            # direct sum of rank-one 2x2 projections, 0 and I
            return request("yes", "decide", "kadison",
                           "--d", spec(fin(*_pairs(rng, int(rng.integers(1, 4)))), *zeros_ones))
        if variant == "kadison_half":
            return request("yes", "decide", "kadison", "--d", spec(const(Q(1, 2), "inf")))
        u = Q(int(rng.integers(1, 4)), int(rng.integers(5, 9)))
        return request("no", "decide", "kadison",
                       "--d", spec(fin(*_pairs(rng, int(rng.integers(0, 3))), u), *zeros_ones))
    if variant == "bj_self":
        t = Q(int(rng.integers(1, 9)), 9)
        d = spec(fin(*[t] * int(rng.integers(1, 4))), const(0, "inf"), const(1, "inf"))
        return request("yes", "decide", "bownik-jasper", "--exact",
                       "--points", json.dumps(["0", qs(t), "1"]), "--d", d)
    if variant == "bj_quarter":
        d = spec(fin(Q(1, 4)), const(0, "inf"), const(1, "inf"))
        return request("no", "decide", "bownik-jasper", "--exact",
                       "--points", json.dumps(["0", "1/3", "1"]), "--d", d)
    if variant.startswith("gm"):
        head = _signed_head(rng, int(rng.integers(2, 5))) + [Q(3, 2), Q(1, 2)]
        tail = geo(pos_rat(rng, Q(1, 2), 8), Q(1, 2))
        lam = spec(fin(*head), tail)
        d = list(head)
        if variant == "gm_identity":
            return request("yes", "decide", "gohberg-markus", "--lambda", lam, "--d", lam)
        if variant == "gm_t_transform":
            d[-2], d[-1] = mix(d[-2], d[-1], Q(int(rng.integers(1, 8)), 8))
            return request("yes", "decide", "gohberg-markus", "--lambda", lam,
                           "--d", spec(fin(*d), tail))
        d[0] += pos_rat(rng, 1, 5)  # trace changes
        return request("no", "decide", "gohberg-markus", "--lambda", lam, "--d", spec(fin(*d), tail))
    if variant.startswith("kw"):
        head = [Q(5, 2), Q(3, 2)] + _head(rng, int(rng.integers(1, 3)))
        tail = _tail(rng)
        s = spec(fin(*head), tail)
        d = list(head)
        d[0], d[1] = mix(d[0], d[1], Q(int(rng.integers(1, 8)), 8))
        if variant == "kw_identity":
            return request("yes", "decide", "kw", "--s", s, "--kernel-dim", "0", "--d", s)
        if variant == "kw_t_transform":
            return request("yes", "decide", "kw", "--s", s, "--kernel-dim", "0",
                           "--d", spec(fin(*d), tail))
        if variant == "kw_reversed":
            return request("no", "decide", "kw", "--s", spec(fin(*d), tail),
                           "--kernel-dim", "0", "--d", s)
        # a zero on the diagonal of a positive operator puts e_i in its kernel
        return request("no", "decide", "kw", "--s", s, "--kernel-dim", "0",
                       "--d", spec(fin(*head, 0), tail))
    if variant.startswith("three"):
        a, b = _affine(rng)
        mid = Q(int(rng.integers(1, 7)), 7)
        op = _three_point(a, b, mid)
        if variant == "three_const":
            d = spec(const(a * mid + b, "inf"))
            return request("yes", "decide", "three-point", "--spec", op, "--d", d)
        if variant == "three_pad":
            d = spec(const(b, int(rng.integers(1, 7))), const(a * mid + b, "inf"))
            return request("yes", "decide", "three-point", "--spec", op, "--d", d)
        # T - bI >= 0 with zero diagonal would force T = bI
        return request("no", "decide", "three-point", "--spec", op, "--d", spec(const(b, "inf")))
    if variant.startswith("jlw"):
        if variant == "jlw_horn":
            # a repeated smallest modulus satisfies Horn's inequality for the
            # finite block; pad with the identity
            m0 = Q(int(rng.integers(0, 8)), 8)
            head = [m0, -m0] + [Q(int(rng.integers(int(m0 * 8), 9)), 8)
                                for _ in range(int(rng.integers(0, 3)))]
            return request("yes", "decide", "jlw-unitary", "--d", spec(fin(*head), const(1, "inf")))
        if variant == "jlw_rotations":
            c = Q(int(rng.integers(0, 8)), 8)
            return request("yes", "decide", "jlw-unitary", "--d", spec(const(c, "inf")))
        # every other row is a unit vector times a phase, so |d_0| must be 1
        m = Q(int(rng.integers(0, 8)), 8)
        return request("no", "decide", "jlw-unitary", "--d", spec(fin(m), const(1, "inf")))
    s_head = [Q(5, 2), Q(3, 2)] + _head(rng, int(rng.integers(1, 3)))
    tail = _tail(rng)
    s = spec(fin(*s_head), tail)
    d = list(s_head)
    if variant == "tc_signs":
        d = [-v if rng.integers(2) else v for v in d]
        return request("yes", "decide", "thompson-compact", "--s", s, "--d", spec(fin(*d), tail))
    if variant == "tc_t_transform":
        d[0], d[1] = mix(d[0], d[1], Q(int(rng.integers(1, 8)), 8))
        return request("yes", "decide", "thompson-compact", "--s", s, "--d", spec(fin(*d), tail))
    d[0] += pos_rat(rng, 1, 5)  # |d| is no longer weakly majorized by s
    return request("no", "decide", "thompson-compact", "--s", s, "--d", spec(fin(*d), tail))


THEOREM_VARIANTS = (
    "kadison_pairs", "kadison_half", "kadison_no", "bj_self", "bj_quarter",
    "gm_identity", "gm_t_transform", "gm_total", "kw_identity", "kw_t_transform",
    "kw_reversed", "kw_zero", "three_const", "three_pad", "three_zero",
    "jlw_horn", "jlw_rotations", "jlw_single", "tc_signs", "tc_t_transform",
    "tc_increase")


def _rat_list(rng, n, lo=-50, hi=50, den=8):
    return [rat(rng, lo, hi, den) for _ in range(n)]


def _exact(values):
    return [qs(v) for v in values]


def gen_crit12(rng, k):
    pairs = []
    for _ in range(k):
        n = int(rng.integers(1, 11))
        pairs.append((_exact(_rat_list(rng, n, -8, 8, 8)), _exact(_rat_list(rng, n, -8, 8, 8))))
    return {"pairs": pairs}


def run_crit12(x):
    return [M.majorize_finite([Q(v) for v in d], [Q(v) for v in lam]).verdict
            for d, lam in x["pairs"]]


def check_crit12(x, out):
    for (d, lam), got in zip(x["pairs"], out):
        truth = O.rational_majorization_oracle([Q(v) for v in d], [Q(v) for v in lam])
        if got != truth:
            return checks.wrong(f"majorize_finite says {got}, the oracle {truth}")
    return checks.ok()


def _averaged(rng, lam, k):
    """d = (sum of k permutations of lam) / k, majorized by lam (Birkhoff)."""
    n = len(lam)
    perms = [rng.permutation(n) for _ in range(k - 1)]
    return [(lam[i] + sum(lam[int(p[i])] for p in perms)) / k for i in range(n)]


def gen_shx(rng, size):
    n, truth = size
    lam = _rat_list(rng, n)
    d = _averaged(rng, lam, 2)
    if truth == "no":
        d[int(rng.integers(n))] += Q(1, 7)  # total sum no longer matches
    return {"lam": _exact(lam), "d": _exact(d), "truth": truth}


def run_shx(x):
    return D.decide_schur_horn([Q(v) for v in x["lam"]], [Q(v) for v in x["d"]])


def check_shx(x, dec):
    res = checks.verdict(x["truth"], dec.verdict)
    if res.status != "ok":
        return res
    for key, values in (("partial_sums_d", x["d"]), ("partial_sums_lambda", x["lam"])):
        ref, run = [], Q(0)
        for v in sorted((Q(v) for v in values), reverse=True):
            run += v
            ref.append(run)
        if dec.certificate.get(key) != ref:
            return checks.wrong(f"certificate {key} differs from the partial sums")
    return res


def gen_cvx(rng, n):
    lam = _rat_list(rng, n, -20, 20, 6)
    return {"lam": _exact(lam), "d": _exact(_averaged(rng, lam, 3))}


def run_cvx(x):
    return C.convex_decomposition([Q(v) for v in x["lam"]], [Q(v) for v in x["d"]])


def check_cvx(x, parts):
    lam = [Q(v) for v in x["lam"]]
    n = len(lam)
    if any(w <= 0 for w, _ in parts) or sum(w for w, _ in parts) != 1:
        return checks.wrong("weights are not a probability vector")
    if any(sorted(p) != list(range(n)) for _, p in parts):
        return checks.wrong("a part is not a permutation")
    recon = [sum(w * lam[p[r]] for w, p in parts) for r in range(n)]
    if recon != [Q(v) for v in x["d"]]:
        return checks.wrong("weighted permutations do not reproduce d")
    return checks.ok()


def gen_scan999(rng, _):
    return {}


def run_scan999(x):
    return M.weak_majorize(S.seq(S.Geometric(Q(1, 1000), Q(999, 1000))),
                           S.seq(S.TelescopingHarmonic(Q(1))), horizon=SCAN_999_HORIZON)


def check_scan999(x, v):
    res = checks.verdict("no", v.verdict)
    if res.status != "ok":
        return res
    m, lhs, rhs = v.witness
    return _check_slow_witness({"c": "1", "r": "999/1000"}, m, lhs, rhs)


# ---------------------------------------------------------------------------
# registry and rounds


CLASSES = {c.name: c for c in (
    OpClass("sh_float", gen_sh, run_sh, check_sh),
    OpClass("sh40", gen_sh, run_sh, check_sh),
    OpClass("thompson", gen_thompson, run_thompson, check_thompson),
    OpClass("unitary", gen_unitary, run_unitary, check_unitary),
    OpClass("zero_diag", gen_zero_diag, run_zero_diag, check_zero_diag),
    OpClass("attain", gen_attain, run_attain, check_attain),
    OpClass("sample_herm", gen_sample_herm, run_sample_herm, check_sample_herm),
    OpClass("sample_normal3", gen_sample_normal3, run_sample_normal3, check_sample_normal3),
    OpClass("search_reach", gen_search_reach, run_search, check_search_reach),
    OpClass("search_unreach", gen_search_unreach, run_search_unreach, check_search_unreach),
    OpClass("cli_weak", gen_cli_weak, run_cli, check_cli),
    OpClass("cli_l1", gen_cli_l1, run_cli, check_cli),
    OpClass("cli_p", gen_cli_p, run_cli, check_cli),
    OpClass("cli_slow", gen_cli_slow, run_cli, check_cli),
    OpClass("cli_twotail", gen_cli_twotail, run_cli, check_cli),
    OpClass("cli_theorem", gen_cli_theorem, run_cli, check_cli),
    OpClass("crit12", gen_crit12, run_crit12, check_crit12),
    OpClass("shx", gen_shx, run_shx, check_shx),
    OpClass("shx1000", gen_shx, run_shx, check_shx),
    OpClass("cvx", gen_cvx, run_cvx, check_cvx),
    OpClass("cvx30", gen_cvx, run_cvx, check_cvx),
    OpClass("scan999", gen_scan999, run_scan999, check_scan999),
)}


def _slots(name, sizes, repeat=1):
    return [(name, s) for s in sizes] * repeat


WEAK_VARIANTS = ("identity", "const", "decrease", "increase", "t_transform", "reversed")
L1_VARIANTS = ("identity", "total", "t_transform", "reversed")
P_VARIANTS = tuple([("ladder", p) for p in P_LEVELS] + [("reversed", None), ("reversed", None)]
                   + [("self_geo", p) for p in P_LEVELS] + [("self_tel", p) for p in P_LEVELS])

# Slot counts keep each class near or under half of a round's time, and put
# the 90th percentile inside one class with many slots (the n = 24-38
# Schur-Horn tail, the criterion-12 batches, the searches): a percentile on
# the edge between two classes of very different cost jumps between runs.
ROUNDS = {
    "finite_realize": (
        _slots("attain", (3, 4, 4, 5, 6))
        + _slots("sh40", (40,), 3)
        + _slots("sh_float", range(2, 17), 8)
        + _slots("sh_float", range(24, 40, 2), 5)
        + _slots("thompson", [(2, True), (2, False)], 15)
        + _slots("thompson", [(n, real) for n in (3, 4) for real in (True, False)], 5)
        + _slots("unitary", range(2, 9), 9)
        + _slots("zero_diag", range(2, 11), 7)),
    "oracle_crosscheck": (
        _slots("sample_herm", range(2, 9), 4)
        + _slots("sample_normal3", (3,), 12)
        + _slots("search_reach", ("general", "normal"), 6)
        + _slots("search_unreach", (3,), 8)),
    "symbolic_exact": (
        _slots("shx", ((200, "yes"), (300, "no"), (500, "yes")))
        + _slots("shx1000", ((1000, "yes"),))
        + _slots("cvx", (8, 12, 16, 20))
        + _slots("cvx30", (30,))
        + _slots("crit12", (100,), 25)
        + _slots("scan999", (None,))
        + _slots("cli_twotail", (None,), 2)
        + _slots("cli_slow", SLOW_RATIOS, 2)
        + _slots("cli_weak", WEAK_VARIANTS, 10)
        + _slots("cli_l1", L1_VARIANTS, 10)
        + _slots("cli_p", P_VARIANTS, 4)
        + _slots("cli_theorem", THEOREM_VARIANTS, 6)),
}


def round_of(workload):
    """The workload's round, interleaved in a fixed order that no seed changes."""
    slots = ROUNDS[workload]
    order = np.random.default_rng(0).permutation(len(slots))
    return [slots[int(i)] for i in order]


def make_instance(workload, seed, index, rnd=None):
    rnd = rnd or round_of(workload)
    name, size = rnd[index % len(rnd)]
    rng = np.random.default_rng([seed, index])
    return name, CLASSES[name].gen(rng, size)


# Set-up warms each class once on a small size of the same operation.
WARMUP_SIZE = {"sh40": 8, "shx": (50, "yes"), "shx1000": (50, "yes"), "cvx": 6, "cvx30": 6}


def warmup_instances(workload):
    """One small instance per class, drawn from a fixed seed."""
    first = {}
    for name, size in ROUNDS[workload]:
        first.setdefault(name, WARMUP_SIZE.get(name, size))
    rng = np.random.default_rng([1 << 20])
    return [(name, CLASSES[name].gen(rng, size)) for name, size in sorted(first.items())]


def canonical(inputs):
    """Byte string of an instance's inputs (for reproducibility checks)."""
    def enc(v):
        if isinstance(v, complex):
            return [v.real, v.imag]
        if isinstance(v, Q):
            return str(v)
        if isinstance(v, (np.integer, np.floating)):
            return v.item()
        raise TypeError(f"cannot encode {type(v).__name__}")
    return json.dumps(inputs, default=enc, sort_keys=True, separators=(",", ":")).encode()
