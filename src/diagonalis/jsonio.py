"""JSON encodings for sequence specs, operator specs and matrices.

Wire formats:

* scalar: number; rational as ``"p/q"``; complex as ``[re, im]``
* sequence spec: ``{"field": "real"|"complex", "exact": bool, "streams":
  [{"kind": "finite", "values": [...]},
   {"kind": "geometric", "first": x, "ratio": r, "offset": o?},
   {"kind": "const", "value": v, "count": "inf"|n},
   {"kind": "telescoping", "scale": c, "offset": o?}]}``
* ordered spec: same plus ``"ordered": true, "prefix": [...],
  "tail": [{"stream": {...}, "weight": n}]``
* matrix: ``{"n": k, "real": bool, "entries": [[re, im], ...]}`` row-major
* operator spec: tagged union ``{"variant": "matrix"|"finite_spectrum"|
  "diagonalizable", ...}``
"""

from __future__ import annotations

import json
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .scalars import INF, QC, InputError, fraction_str
from .seqspec import (
    ConstantRepeat,
    FiniteList,
    Geometric,
    OrderedSequenceSpec,
    SequenceSpec,
    TelescopingHarmonic,
    stream_params,
)
from .spectra import (
    DenseMatrix,
    DiagonalizableSpec,
    FiniteSpectrumSpec,
    MatrixSpec,
)


# "p/q" as ``fraction_str`` prints it, also past the int-to-str digit limit
_LONG_RATIONAL = re.compile(r"\s*([+-]?\d+)(?:/(\d+))?\s*")


def _rational(text):
    """``Fraction(text)``; integers beyond ``sys.get_int_max_str_digits()``
    digits are read through ``decimal.Decimal``, which has no such limit."""
    try:
        return Fraction(text)
    except ValueError:
        m = _LONG_RATIONAL.fullmatch(text)
        if m is None:
            raise
        return Fraction(int(Decimal(m[1])), int(Decimal(m[2] or 1)))


def decode_scalar(obj, exact=False, field="real"):
    if isinstance(obj, str):
        try:
            return _rational(obj)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational scalar {obj!r}") from exc
    if isinstance(obj, bool):
        raise InputError("booleans are not scalars")
    if isinstance(obj, (int, float)):
        if exact:
            if isinstance(obj, int):
                return Fraction(obj)
            if float(obj).is_integer():
                return Fraction(int(obj))
            raise InputError("exact mode requires rationals as \"p/q\" strings or integers")
        return float(obj)
    if isinstance(obj, list) and len(obj) == 2:
        re = decode_scalar(obj[0], exact)
        im = decode_scalar(obj[1], exact)
        if exact:
            return QC(Fraction(re), Fraction(im))
        return complex(re, im)
    raise InputError(f"cannot decode scalar from {obj!r}")


def encode_scalar(x):
    if isinstance(x, QC):
        return [encode_scalar(x.re), encode_scalar(x.im)]
    if isinstance(x, Fraction):
        return fraction_str(x)
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, (np.floating, np.integer)):
        return float(x)
    return x


def _json_int(obj, what):
    """A JSON integer; booleans and other numbers are input errors."""
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise InputError(f"{what} must be a JSON integer, got {obj!r}")
    return obj


def _json_bool(obj, what):
    """A JSON boolean; strings, numbers and null are input errors."""
    if not isinstance(obj, bool):
        raise InputError(f"{what} must be a JSON boolean, got {obj!r}")
    return obj


def _decode_count(obj):
    if obj == "inf":
        return INF
    if _json_int(obj, "count") >= 1:
        return obj
    raise InputError(f"bad count {obj!r}")


def _encode_count(c):
    return "inf" if c == INF else int(c)


def decode_stream(obj, exact):
    if not isinstance(obj, dict):
        raise InputError(f"stream must be an object, got {obj!r}")
    kind = obj.get("kind")
    if kind == "finite":
        return FiniteList([decode_scalar(v, exact) for v in obj["values"]])
    if kind == "geometric":
        off = decode_scalar(obj.get("offset", 0), exact)
        return Geometric(decode_scalar(obj["first"], exact),
                         decode_scalar(obj["ratio"], exact), off)
    if kind == "const":
        return ConstantRepeat(decode_scalar(obj["value"], exact),
                              _decode_count(obj["count"]))
    if kind == "telescoping":
        off = decode_scalar(obj.get("offset", 0), exact)
        return TelescopingHarmonic(decode_scalar(obj["scale"], exact), off)
    raise InputError(f"unknown stream kind {kind!r}")


def encode_stream(s):
    if isinstance(s, FiniteList):
        return {"kind": "finite", "values": [encode_scalar(v) for v in s.values]}
    if isinstance(s, ConstantRepeat):
        return {"kind": "const", "value": encode_scalar(s.value),
                "count": _encode_count(s.count)}
    if isinstance(s, Geometric):
        out = {"kind": "geometric", "first": encode_scalar(s.first),
               "ratio": encode_scalar(s.ratio)}
        if not (s.offset == 0):
            out["offset"] = encode_scalar(s.offset)
        return out
    if isinstance(s, TelescopingHarmonic) and s.n0 == 1:
        out = {"kind": "telescoping", "scale": encode_scalar(s.scale)}
        if not (s.offset == 0):
            out["offset"] = encode_scalar(s.offset)
        return out
    raise InputError(f"stream {s!r} has no wire format")


def decode_sequence(obj):
    if not isinstance(obj, dict):
        raise InputError("sequence spec must be an object")
    field = obj.get("field", "real")
    exact = _json_bool(obj.get("exact", True), "exact")
    if _json_bool(obj.get("ordered", False), "ordered"):
        prefix = [decode_scalar(v, exact) for v in obj.get("prefix", [])]
        tail = []
        for item in obj.get("tail", []):
            tail.append((decode_stream(item["stream"], exact),
                         _json_int(item["weight"], "weight")))
        return OrderedSequenceSpec(tuple(prefix), tuple(tail), field, exact)
    streams = [decode_stream(s, exact) for s in obj.get("streams", [])]
    if field == "real" and any(isinstance(p, (complex, QC))
                               for s in streams for p in stream_params(s)):
        raise InputError("complex value in a real sequence spec")
    return SequenceSpec(tuple(streams), field, exact)


def encode_sequence(spec):
    if isinstance(spec, OrderedSequenceSpec):
        return {"ordered": True, "field": spec.field, "exact": spec.exact,
                "prefix": [encode_scalar(v) for v in spec.prefix],
                "tail": [{"stream": encode_stream(s), "weight": w}
                         for s, w in spec.tail]}
    return {"field": spec.field, "exact": spec.exact,
            "streams": [encode_stream(s) for s in spec.streams]}


def decode_matrix(obj) -> DenseMatrix:
    if not isinstance(obj, dict):
        raise InputError("matrix must be an object")
    n = _json_int(obj["n"], "n")
    entries = obj["entries"]
    if len(entries) != n * n:
        raise InputError("entries must hold n*n values row-major")
    data = np.zeros((n, n), dtype=complex)
    for idx, e in enumerate(entries):
        v = decode_scalar(e, exact=False)
        data[idx // n, idx % n] = complex(v) if not isinstance(v, float) else v
    return DenseMatrix(data, real=_json_bool(obj.get("real", False), "real"))


def encode_matrix(m: DenseMatrix):
    entries = []
    for row in m.data:
        for v in row:
            entries.append([float(v.real), float(v.imag)])
    return {"n": m.n, "real": m.real, "entries": entries}


def decode_operator(obj):
    if not isinstance(obj, dict):
        raise InputError("operator spec must be an object")
    variant = obj.get("variant")
    if variant == "matrix":
        return MatrixSpec(decode_matrix(obj["matrix"]))
    if variant == "finite_spectrum":
        exact = _json_bool(obj.get("exact", True), "exact")
        pts = []
        for val, mult in obj["points"]:
            pts.append((decode_scalar(val, exact), _decode_count(mult)))
        return FiniteSpectrumSpec(tuple(pts))
    if variant == "diagonalizable":
        eigs = decode_sequence(obj["eigs"])
        kd = obj.get("kernel_dim", 0)
        kernel = INF if kd == "inf" else _json_int(kd, "kernel_dim")
        return DiagonalizableSpec(eigs, kernel)
    raise InputError(f"unknown operator variant {variant!r}")


def encode_operator(spec):
    if isinstance(spec, MatrixSpec):
        return {"variant": "matrix", "matrix": encode_matrix(spec.matrix)}
    if isinstance(spec, FiniteSpectrumSpec):
        return {"variant": "finite_spectrum",
                "points": [[encode_scalar(v), _encode_count(m)] for v, m in spec.points]}
    if isinstance(spec, DiagonalizableSpec):
        return {"variant": "diagonalizable", "eigs": encode_sequence(spec.eigs),
                "kernel_dim": _encode_count(spec.kernel_dim)}
    raise InputError("operator spec has no wire format")


def decode_scalar_list(obj, exact=False):
    if not isinstance(obj, list):
        raise InputError("expected a JSON array of scalars")
    return [decode_scalar(v, exact) for v in obj]


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


SCHEMA = {
    "scalar": "number | \"p/q\" string (exact) | [re, im] pair",
    "sequence_spec": {
        "field": "real | complex",
        "exact": "bool",
        "streams": [
            {"kind": "finite", "values": ["scalar"]},
            {"kind": "geometric", "first": "scalar", "ratio": "scalar (|ratio|<1)",
             "offset": "scalar, optional, default 0"},
            {"kind": "const", "value": "scalar", "count": "positive int | \"inf\""},
            {"kind": "telescoping", "scale": "scalar",
             "offset": "scalar, optional, default 0"},
        ],
    },
    "ordered_sequence_spec": {
        "ordered": True,
        "prefix": ["scalar"],
        "tail": [{"stream": "stream object", "weight": "positive int"}],
    },
    "matrix": {"n": "int", "real": "bool", "entries": "[[re, im], ...] row-major, n*n"},
    "operator_spec": [
        {"variant": "matrix", "matrix": "matrix object"},
        {"variant": "finite_spectrum",
         "points": "[[eigenvalue scalar, multiplicity | \"inf\"], ...]"},
        {"variant": "diagonalizable", "eigs": "sequence_spec",
         "kernel_dim": "int | \"inf\""},
    ],
    "decision": {"verdict": "Yes | YesModuloKernel | No | Unknown | "
                            "SufficientConditionHolds | NecessaryConditionFails | "
                            "ConditionFails",
                 "theorem": "tag", "certificate": "object", "mode": "exact | float"},
    "exit_codes": {"0": "Yes (incl. YesModuloKernel, SufficientConditionHolds)",
                   "1": "No (incl. NecessaryConditionFails)",
                   "2": "Unknown / ConditionFails / NotFound",
                   "3": "error"},
}
