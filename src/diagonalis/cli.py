"""Command-line front end.

JSON-only machine output on stdout, human-readable logs on stderr.  Exit
codes: 0 = Yes (including YesModuloKernel / SufficientConditionHolds),
1 = No (including NecessaryConditionFails), 2 = Unknown / ConditionFails /
NotFound, 3 = error.  All randomness sits behind an explicit --seed, and
identical inputs with the same seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback

import numpy as np

from . import constructors, deciders, jsonio, oracle
from .majorization import (
    HORIZON_DEFAULT,
    approx_p_majorize,
    majorize_finite,
    majorize_l1,
    p_majorize,
    parse_plevel,
    weak_majorize,
)
from .scalars import INF, QC, DiagonalisError, InputError
from .seqspec import OrderedSequenceSpec
from .spectra import (
    DiagonalizableSpec,
    hermitian_eigenvalues,
    numerical_range_hull,
    singular_values,
)

EXIT_YES, EXIT_NO, EXIT_UNKNOWN, EXIT_ERROR = 0, 1, 2, 3

_VERDICT_EXIT = {
    "Yes": EXIT_YES,
    "YesModuloKernel": EXIT_YES,
    "SufficientConditionHolds": EXIT_YES,
    "Holds": EXIT_YES,
    "No": EXIT_NO,
    "NecessaryConditionFails": EXIT_NO,
    "Fails": EXIT_NO,
    "Unknown": EXIT_UNKNOWN,
    "ConditionFails": EXIT_UNKNOWN,
}


def _load(arg: str):
    if arg is None:
        return None
    text = arg.strip()
    if not text.startswith(("{", "[")):
        try:
            with open(arg) as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {arg!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad JSON in {arg!r}: {exc}") from exc


def _emit(obj, code):
    sys.stdout.write(jsonio.dumps(obj))
    return code


def _decode(decoder, raw, **kwargs):
    """Decode user input; a malformed shape or value is an InputError.

    This is the only place that reads a KeyError, TypeError or ValueError as
    bad input; raised anywhere else, they report their own type.
    """
    try:
        return decoder(raw, **kwargs)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(str(exc)) from exc


def _arg(args, name, decoder, attr=None, **kwargs):
    raw = _load(getattr(args, attr or name))
    if raw is None:
        raise InputError(f"--{name} is required")
    return _decode(decoder, raw, **kwargs)


def _check_order(spec, what, ordered=False):
    """``spec``, if it is ordered (``"ordered": true``) exactly when asked for."""
    if isinstance(spec, OrderedSequenceSpec) != ordered:
        raise InputError(f"{what} takes {'an ordered' if ordered else 'an unordered'} "
                         "sequence spec")
    return spec


def _seq(args, name, attr=None, ordered=False):
    return _check_order(_arg(args, name, jsonio.decode_sequence, attr), f"--{name}", ordered)


def _scalars(args, name, attr=None):
    return _arg(args, name, jsonio.decode_scalar_list, attr, exact=args.exact)


def _reals(args, name, attr=None):
    """A scalar list for an argument that takes real values only."""
    values = _scalars(args, name, attr)
    if any(isinstance(v, (complex, QC)) for v in values):
        raise InputError(f"--{name} takes real values, not [re, im] pairs")
    return values


def _operator(args):
    spec = _arg(args, "spec", jsonio.decode_operator)
    if isinstance(spec, DiagonalizableSpec):
        _check_order(spec.eigs, "--spec eigs")
    return spec


def _matrix(args, name="matrix"):
    return _arg(args, name, jsonio.decode_matrix)


def _kernel_dim(args):
    if args.kernel_dim is None:
        raise InputError("--kernel-dim is required")
    return INF if args.kernel_dim == "inf" else _decode(int, args.kernel_dim)


def _rays(raw, exact):
    return [(jsonio.decode_scalar(phase, exact=exact),
             _check_order(jsonio.decode_sequence(mag), "--rays"))
            for phase, mag in raw]


def _floats(raw):
    return sorted((float(x) for x in jsonio.decode_scalar_list(raw)), reverse=True)


def _complexes(raw):
    return [complex(jsonio.decode_scalar(x, exact=False)) for x in raw]


def cmd_decide(args) -> int:
    tag = args.theorem
    if tag == "majorization":
        kind = args.kind or "finite"
        if kind == "finite":
            v = majorize_finite(_reals(args, "d"), _reals(args, "lambda", "lam"))
        elif kind == "weak":
            v = weak_majorize(_seq(args, "d"), _seq(args, "lambda", "lam"),
                              horizon=args.horizon)
        elif kind == "l1":
            v = majorize_l1(_seq(args, "d"), _seq(args, "lambda", "lam"),
                            horizon=args.horizon)
        elif kind in ("p", "approx-p"):
            p = _decode(parse_plevel, args.p if args.p is not None else 0)
            fn = p_majorize if kind == "p" else approx_p_majorize
            v = fn(_seq(args, "d"), _seq(args, "lambda", "lam"), p,
                   horizon=args.horizon)
        else:
            raise InputError(f"unknown majorization kind {kind!r}")
        return _emit(v.as_json(), _VERDICT_EXIT[v.verdict])
    if tag == "schur-horn":
        dec = deciders.decide_schur_horn(_reals(args, "lambda", "lam"),
                                         _reals(args, "d"))
    elif tag == "gohberg-markus":
        dec = deciders.decide_gohberg_markus(_seq(args, "lambda", "lam"), _seq(args, "d"))
    elif tag == "kw":
        dec = deciders.decide_kw(_seq(args, "s"), _kernel_dim(args), _seq(args, "d"))
    elif tag == "kadison":
        dec = deciders.decide_kadison(_seq(args, "d"))
    elif tag == "bownik-jasper":
        dec = deciders.decide_bownik_jasper(_reals(args, "points"), _seq(args, "d"))
    elif tag == "neumann":
        dec = deciders.decide_neumann_closure(_operator(args), _seq(args, "d"))
    elif tag == "blaschke":
        dec = deciders.check_blaschke(_operator(args), _seq(args, "d"),
                                      mode=args.mode or "selfadjoint")
    elif tag == "three-point":
        dec = deciders.decide_three_point(_operator(args), _seq(args, "d"))
    elif tag == "williams":
        dec = deciders.decide_williams_3x3(_scalars(args, "lambda", "lam"),
                                           _scalars(args, "d"))
    elif tag == "arveson":
        dec = deciders.check_arveson(_scalars(args, "vertices"), _seq(args, "d"),
                                     coeff_bound=args.coeff_bound)
    elif tag == "horn-unitary":
        dec = deciders.decide_horn_unitary(_scalars(args, "d"),
                                           args.variant or "unitary")
    elif tag == "jlw-unitary":
        dec = deciders.decide_jlw_unitary(_seq(args, "d"))
    elif tag == "thompson":
        dec = deciders.decide_thompson(_reals(args, "s"), _scalars(args, "d"))
    elif tag == "thompson-compact":
        dec = deciders.decide_thompson_compact(_seq(args, "s"), _seq(args, "d"))
    elif tag == "mt-p-summable":
        dec = deciders.check_mt_p_summable(_operator(args), _seq(args, "d"),
                                           _decode(float, args.p))
    elif tag == "fan":
        dec = deciders.check_fan_criterion(_seq(args, "d", ordered=True))
    elif tag == "ffh-trace":
        cls = deciders.classify_trace_set(_arg(args, "rays", _rays, exact=args.exact))
        return _emit(cls.as_json(), EXIT_YES)
    else:
        raise InputError(f"unknown theorem tag {tag!r}")
    return _emit(dec.as_json(), _VERDICT_EXIT[dec.verdict])


def cmd_construct(args) -> int:
    target = args.target
    if target == "schur-horn":
        out = constructors.construct_schur_horn(_reals(args, "lambda", "lam"),
                                                _reals(args, "d"), tol=args.tol)
    elif target == "convex-decomposition":
        parts = constructors.convex_decomposition(_reals(args, "lambda", "lam"),
                                                  _reals(args, "d"))
        body = [{"weight": jsonio.encode_scalar(w), "permutation": list(p)}
                for w, p in parts]
        return _emit({"decomposition": body}, EXIT_YES)
    elif target == "projection":
        out = constructors.construct_projection_with_diagonal(_reals(args, "d"),
                                                              tol=args.tol)
    elif target == "kadison-block":
        desc = constructors.construct_kadison_block(_seq(args, "d"), tol=args.tol)
        return _emit(desc.as_json(), EXIT_YES)
    elif target == "zero-diagonal":
        out = constructors.construct_zero_diagonal_basis(_matrix(args), tol=args.tol)
    elif target == "thompson":
        out = constructors.construct_thompson(_reals(args, "s"), _scalars(args, "d"),
                                              tol=args.tol, seed=args.seed,
                                              budget=200 if args.budget is None else args.budget)
    elif target == "unitary":
        out = constructors.construct_unitary_with_diagonal(_scalars(args, "d"),
                                                           tol=args.tol)
    elif target == "williams":
        out = constructors.construct_williams(_scalars(args, "lambda", "lam"),
                                              _scalars(args, "d"), tol=max(args.tol, 1e-8),
                                              budget=4096 if args.budget is None else args.budget)
    else:
        raise InputError(f"unknown construct target {target!r}")
    if isinstance(out, constructors.NotFound):
        return _emit(out.as_json(), EXIT_UNKNOWN)
    return _emit(out.as_json(), EXIT_YES)


def cmd_verify(args) -> int:
    what = args.what
    if what == "matrix":
        m = _matrix(args)
        report = {}
        ok = True
        scale = max(m.norm(), 1.0)
        if args.eigenvalues:
            claimed = _arg(args, "eigenvalues", _floats)
            got = hermitian_eigenvalues(m)
            res = float(np.max(np.abs(got - np.array(claimed))))
            report["eigenvalue_residual"] = res
            ok = ok and res <= args.tol * scale
        if args.singular_values:
            claimed = _arg(args, "singular_values", _floats)
            got = singular_values(m)
            res = float(np.max(np.abs(got - np.array(claimed))))
            report["singular_residual"] = res
            ok = ok and res <= args.tol * scale
        if args.diagonal:
            claimed = _arg(args, "diagonal", _complexes)
            res = float(np.max(np.abs(m.diag() - np.array(claimed))))
            report["diagonal_residual"] = res
            ok = ok and res <= args.tol * scale
        report["ok"] = ok
        return _emit(report, EXIT_YES if ok else EXIT_NO)
    if what == "kadison-codimension":
        rep = deciders.verify_kadison_codimension_identity(_matrix(args))
        return _emit(rep.as_json(), EXIT_YES if rep.ok else EXIT_NO)
    if what == "normal-codimension":
        rep = deciders.verify_normal_codimension_identity(
            _matrix(args, "n_matrix"), _matrix(args, "n_prime"))
        return _emit(rep.as_json(), EXIT_YES if rep.ok else EXIT_NO)
    if what == "essential-codimension":
        val = deciders.essential_codimension_finite(_matrix(args, "p_matrix"),
                                                    _matrix(args, "q_matrix"))
        return _emit({"essential_codimension": val}, EXIT_YES)
    raise InputError(f"unknown verify target {what!r}")


def cmd_oracle(args) -> int:
    what = args.what
    if what == "sample":
        t = _matrix(args)
        outs = oracle.sample_diagonals(t, trials=args.trials, seed=args.seed)
        body = [[[float(v.real), float(v.imag)] for v in d] for d in outs]
        return _emit({"diagonals": body}, EXIT_YES)
    if what == "search":
        t = _matrix(args)
        d = _arg(args, "d", _complexes)
        budget = 100_000 if args.budget is None else args.budget
        out = oracle.search_membership(t, d, tol=args.tol, budget=budget, seed=args.seed)
        if isinstance(out, oracle.Found):
            return _emit(out.as_json(), EXIT_YES)
        return _emit(out.as_json(), EXIT_UNKNOWN)
    if what == "rational-majorization":
        verdict = oracle.rational_majorization_oracle(
            _reals(args, "d"), _reals(args, "lambda", "lam"))
        return _emit({"verdict": verdict},
                     EXIT_YES if verdict == "Holds" else EXIT_NO)
    raise InputError(f"unknown oracle mode {what!r}")


def cmd_range(args) -> int:
    m = _matrix(args)
    pts = numerical_range_hull(m, grid=args.grid)
    return _emit({"hull": [[p.real, p.imag] for p in pts]}, EXIT_YES)


def cmd_schema(args) -> int:
    return _emit(jsonio.SCHEMA, EXIT_YES)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="diagonalis",
        description="deciders and constructors for diagonals of operators")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--exact", action="store_true",
                       help="parse list scalars exactly (rationals)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--budget", type=int, default=None)
        p.add_argument("--horizon", type=int, default=HORIZON_DEFAULT)
        p.add_argument("--coeff-bound", type=int, default=64)
        p.add_argument("--d", help="sequence spec or scalar list (JSON or file)")
        p.add_argument("--lambda", dest="lam", help="scalar list or sequence spec")
        p.add_argument("--s", help="singular value list or spec")
        p.add_argument("--spec", help="operator spec (JSON or file)")
        p.add_argument("--points", help="increasing spectrum points, JSON list")
        p.add_argument("--vertices", help="polygon vertices, JSON list")
        p.add_argument("--rays", help="[[phase, sequence-spec], ...]; a phase is an angle "
                       "or a unit [re, im] direction, read exactly with --exact")
        p.add_argument("--p", help="p level (integer or 'inf')")
        p.add_argument("--kernel-dim", help="kernel dimension (integer or 'inf')")
        p.add_argument("--kind", help="majorization kind: finite|weak|l1|p|approx-p")
        p.add_argument("--variant", help="horn variant: unitary|orthogonal|rotation")
        p.add_argument("--mode", help="blaschke mode: selfadjoint|general")
        p.add_argument("--matrix", help="matrix JSON or file")

    pd = sub.add_parser("decide", help="run a theorem decider")
    pd.add_argument("theorem")
    common(pd)
    pd.set_defaults(fn=cmd_decide)

    pc = sub.add_parser("construct", help="build an explicit realization")
    pc.add_argument("target")
    common(pc)
    pc.set_defaults(fn=cmd_construct)

    pv = sub.add_parser("verify", help="re-check matrices against claimed data")
    pv.add_argument("what")
    common(pv)
    pv.add_argument("--eigenvalues")
    pv.add_argument("--singular-values", dest="singular_values")
    pv.add_argument("--diagonal")
    pv.add_argument("--n-matrix", dest="n_matrix")
    pv.add_argument("--n-prime", dest="n_prime")
    pv.add_argument("--p-matrix", dest="p_matrix")
    pv.add_argument("--q-matrix", dest="q_matrix")
    pv.set_defaults(fn=cmd_verify)

    po = sub.add_parser("oracle", help="brute-force sampling and search")
    po.add_argument("what", choices=["sample", "search", "rational-majorization"])
    common(po)
    po.add_argument("--trials", type=int, default=100)
    po.set_defaults(fn=cmd_oracle)

    pr = sub.add_parser("range", help="numerical range hull polygon")
    pr.add_argument("--matrix", required=True)
    pr.add_argument("--grid", type=int, default=720)
    pr.set_defaults(fn=cmd_range)

    ps = sub.add_parser("schema", help="dump the JSON schemas")
    ps.set_defaults(fn=cmd_schema)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process-wide parser; argparse keeps no state between parses."""
    return build_parser()


def run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0,) else 0
    if not hasattr(args, "matrix"):
        args.matrix = None
    try:
        return args.fn(args)
    except Exception as exc:  # the process boundary: every fault exits 3 with its type
        if not isinstance(exc, DiagonalisError):
            traceback.print_exc()
        sys.stderr.write(f"error: {exc}\n")
        sys.stdout.write(jsonio.dumps({"error": str(exc),
                                       "type": type(exc).__name__}))
        return EXIT_ERROR


def main():
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
