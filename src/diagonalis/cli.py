"""Command-line front end.

JSON-only machine output on stdout, human-readable logs on stderr.  Exit
codes: 0 = Yes (including YesModuloKernel / SufficientConditionHolds) or a
built realization, 1 = No (including NecessaryConditionFails), 2 = Unknown /
ConditionFails / an oracle search that found nothing, 3 = error.  Only
the oracle reads --budget and --seed: every constructor builds in finitely
many steps, without randomness.  Identical inputs with the same seed give
byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback
from importlib import import_module

from . import jsonio
from .majorization import HORIZON_DEFAULT, parse_plevel
from .scalars import INF, QC, DiagonalisError, InputError, PreconditionError
from .seqspec import OrderedSequenceSpec

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


# Argument decoders: each reads option ``--name`` from the parsed arguments.

def _given(args, name):
    return getattr(args, name.replace("-", "_"))


def _default(value):
    """A decoder giving ``--name`` as parsed, or ``value`` when it is absent."""
    return lambda args, name: value if _given(args, name) is None else _given(args, name)


def _arg(args, name, decoder, **kwargs):
    raw = _load(_given(args, name))
    if raw is None:
        raise InputError(f"--{name} is required")
    return _decode(decoder, raw, **kwargs)


def _check_order(spec, what, ordered=False):
    """``spec``, if it is ordered (``"ordered": true``) exactly when asked for."""
    if isinstance(spec, OrderedSequenceSpec) != ordered:
        raise InputError(f"{what} takes {'an ordered' if ordered else 'an unordered'} "
                         "sequence spec")
    return spec


def _seq(args, name, ordered=False):
    return _check_order(_arg(args, name, jsonio.decode_sequence), f"--{name}", ordered)


def _scalars(args, name):
    return _arg(args, name, jsonio.decode_scalar_list, exact=args.exact)


def _reals(args, name):
    """A scalar list for an argument that takes real values only."""
    values = _scalars(args, name)
    if any(isinstance(v, (complex, QC)) for v in values):
        raise InputError(f"--{name} takes real values, not [re, im] pairs")
    return values


def _operator(args, name):
    spec = _arg(args, name, jsonio.decode_operator)
    if getattr(spec, "eigs", None) is not None:  # a diagonalizable spec
        _check_order(spec.eigs, f"--{name} eigs")
    return spec


def _matrix(args, name):
    return _arg(args, name, jsonio.decode_matrix)


def _kernel_dim(args, name):
    dim = _given(args, name)
    if dim is None:
        raise InputError(f"--{name} is required")
    return INF if dim == "inf" else _decode(int, dim)


def _float(args, name):
    return _decode(float, _given(args, name))


def _plevel(args, name):
    p = _given(args, name)
    return _decode(parse_plevel, 0 if p is None else p)


def _rays(args, name):
    return _arg(args, name, lambda raw: [
        (jsonio.decode_scalar(phase, exact=args.exact),
         _check_order(jsonio.decode_sequence(mag), f"--{name}")) for phase, mag in raw])


def _floats(raw):
    return sorted((float(x) for x in jsonio.decode_scalar_list(raw)), reverse=True)


def _complexes(raw):
    return [complex(jsonio.decode_scalar(x, exact=False)) for x in raw]


def _answer(out):
    """Body and exit code of a decider's, majorization's or constructor's result."""
    if isinstance(out, list):  # convex_decomposition's (weight, permutation) pairs
        return jsonio.encode({"decomposition": [{"weight": w, "permutation": p}
                                                for w, p in out]}), EXIT_YES
    return out.as_json(), _VERDICT_EXIT[out.verdict] if hasattr(out, "verdict") else EXIT_YES


# The one list of theorem tags and construction targets.  An entry is
# (module, function, arguments): each argument is an (option, decoder) pair,
# decoded in order and passed positionally.  The module is imported only when
# its entry runs, so a request whose arguments are all sequence specs or
# scalar lists never imports numpy.  "majorization" has one entry per --kind.
_SEQS = (("d", _seq), ("lambda", _seq))
DECIDE = {
    "schur-horn": ("deciders", "decide_schur_horn", (("lambda", _reals), ("d", _reals))),
    "majorization": {
        "finite": ("majorization", "majorize_finite", (("d", _reals), ("lambda", _reals))),
        "weak": ("majorization", "weak_majorize", (*_SEQS, ("horizon", _given))),
        "l1": ("majorization", "majorize_l1", (*_SEQS, ("horizon", _given))),
        "p": ("majorization", "p_majorize", (*_SEQS, ("p", _plevel), ("horizon", _given))),
        "approx-p": ("majorization", "approx_p_majorize",
                     (*_SEQS, ("p", _plevel), ("horizon", _given))),
    },
    "gohberg-markus": ("deciders", "decide_gohberg_markus", (("lambda", _seq), ("d", _seq))),
    "kw": ("deciders", "decide_kw", (("s", _seq), ("kernel-dim", _kernel_dim), ("d", _seq))),
    "kadison": ("deciders", "decide_kadison", (("d", _seq),)),
    "bownik-jasper": ("deciders", "decide_bownik_jasper", (("points", _reals), ("d", _seq))),
    "neumann": ("deciders", "decide_neumann_closure", (("spec", _operator), ("d", _seq))),
    "blaschke": ("deciders", "check_blaschke",
                 (("spec", _operator), ("d", _seq), ("mode", _default("selfadjoint")))),
    "three-point": ("deciders", "decide_three_point", (("spec", _operator), ("d", _seq))),
    "williams": ("deciders", "decide_williams_3x3", (("lambda", _scalars), ("d", _scalars))),
    "arveson": ("deciders", "check_arveson",
                (("vertices", _scalars), ("d", _seq), ("coeff-bound", _given))),
    "horn-unitary": ("deciders", "decide_horn_unitary",
                     (("d", _scalars), ("variant", _default("unitary")))),
    "jlw-unitary": ("deciders", "decide_jlw_unitary", (("d", _seq),)),
    "thompson": ("deciders", "decide_thompson", (("s", _reals), ("d", _scalars))),
    "thompson-compact": ("deciders", "decide_thompson_compact", (("s", _seq), ("d", _seq))),
    "mt-p-summable": ("deciders", "check_mt_p_summable",
                      (("spec", _operator), ("d", _seq), ("p", _float))),
    "fan": ("deciders", "check_fan_criterion", (("d", functools.partial(_seq, ordered=True)),)),
    "ffh-trace": ("deciders", "classify_trace_set", (("rays", _rays),)),
}
CONSTRUCT = {
    "schur-horn": ("constructors", "construct_schur_horn",
                   (("lambda", _reals), ("d", _reals), ("tol", _given))),
    "convex-decomposition": ("constructors", "convex_decomposition",
                             (("lambda", _reals), ("d", _reals))),
    "projection": ("constructors", "construct_projection_with_diagonal",
                   (("d", _reals), ("tol", _given))),
    "kadison-block": ("constructors", "construct_kadison_block", (("d", _seq), ("tol", _given))),
    "zero-diagonal": ("constructors", "construct_zero_diagonal_basis",
                      (("matrix", _matrix), ("tol", _given))),
    "thompson": ("constructors", "construct_thompson",
                 (("s", _reals), ("d", _scalars), ("tol", _given))),
    "unitary": ("constructors", "construct_unitary_with_diagonal",
                (("d", _scalars), ("tol", _given))),
    "williams": ("constructors", "construct_williams",
                 (("lambda", _scalars), ("d", _scalars), ("tol", _given))),
}


def _entry(table, key, what):
    if key not in table:
        raise InputError(f"unknown {what} {key!r}")
    return table[key]


@functools.cache
def _module(name):
    """A library module, imported when the first request needs it."""
    return import_module(f".{name}", __package__)


def _run(entry, args) -> int:
    module, function, arguments = entry
    values = [decode(args, option) for option, decode in arguments]
    return _emit(*_answer(getattr(_module(module), function)(*values)))


def cmd_decide(args) -> int:
    entry = _entry(DECIDE, args.theorem, "theorem tag")
    if isinstance(entry, dict):
        entry = _entry(entry, args.kind or "finite", "majorization kind")
    return _run(entry, args)


def cmd_construct(args) -> int:
    return _run(_entry(CONSTRUCT, args.target, "construct target"), args)


def _verify_matrix(args) -> int:
    import numpy as np

    from .spectra import hermitian_eigenvalues
    m = _matrix(args, "matrix")
    if m.n == 0:
        raise PreconditionError("matrix must have at least one row")
    report = {}
    ok = True
    scale = max(m.norm(), 1.0)
    for option, key, decoder, compute in (
            ("eigenvalues", "eigenvalue_residual", _floats, hermitian_eigenvalues),
            # LAPACK: the Gram route of spectra.singular_values blurs a zero singular value
            ("singular-values", "singular_residual", _floats,
             lambda m: np.linalg.svd(m.data, compute_uv=False)),
            ("diagonal", "diagonal_residual", _complexes, lambda m: m.diag())):
        if not _given(args, option):
            continue
        claimed = _arg(args, option, decoder)
        if len(claimed) != m.n:
            raise InputError(f"--{option} has {len(claimed)} values for an n = {m.n} matrix")
        res = float(np.max(np.abs(compute(m) - np.array(claimed))))
        report[key] = res
        ok = ok and res <= args.tol * scale
    report["ok"] = ok
    return _emit(report, EXIT_YES if ok else EXIT_NO)


def cmd_verify(args) -> int:
    from . import spectra
    what = args.what
    if what == "matrix":
        return _verify_matrix(args)
    if what == "kadison-codimension":
        rep = spectra.verify_kadison_codimension_identity(_matrix(args, "matrix"))
    elif what == "normal-codimension":
        rep = spectra.verify_normal_codimension_identity(_matrix(args, "n-matrix"),
                                                         _matrix(args, "n-prime"))
    elif what == "essential-codimension":
        val = spectra.essential_codimension_finite(_matrix(args, "p-matrix"),
                                                   _matrix(args, "q-matrix"))
        return _emit({"essential_codimension": val}, EXIT_YES)
    else:
        raise InputError(f"unknown verify target {what!r}")
    return _emit(rep.as_json(), EXIT_YES if rep.ok else EXIT_NO)


def cmd_oracle(args) -> int:
    from . import oracle
    what = args.what
    if what == "sample":
        outs = oracle.sample_diagonals(_matrix(args, "matrix"), trials=args.trials,
                                       seed=args.seed)
        return _emit(jsonio.encode({"diagonals": [d.tolist() for d in outs]}), EXIT_YES)
    if what == "search":
        t = _matrix(args, "matrix")
        # plain numbers reach the search as they are: it rejects a non-finite d itself
        d = _arg(args, "d", lambda raw: [complex(x if isinstance(x, float) else
                                                 jsonio.decode_scalar(x)) for x in raw])
        budget = 100_000 if args.budget is None else args.budget
        out = oracle.search_membership(t, d, tol=args.tol, budget=budget, seed=args.seed)
        return _emit(out.as_json(), EXIT_YES if isinstance(out, oracle.Found) else EXIT_UNKNOWN)
    verdict = oracle.rational_majorization_oracle(_reals(args, "d"), _reals(args, "lambda"))
    return _emit({"verdict": verdict}, EXIT_YES if verdict == "Holds" else EXIT_NO)


def cmd_range(args) -> int:
    from .spectra import numerical_range_hull
    pts = numerical_range_hull(_matrix(args, "matrix"), grid=args.grid)
    return _emit(jsonio.encode({"hull": pts}), EXIT_YES)


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
        p.add_argument("--lambda", metavar="LAM", help="scalar list or sequence spec")
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
    for option in ("--eigenvalues", "--singular-values", "--diagonal", "--n-matrix",
                   "--n-prime", "--p-matrix", "--q-matrix"):
        pv.add_argument(option)
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
