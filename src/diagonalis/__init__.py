"""Deciders and constructors for diagonals of operators.

Sequence models and the spectral models of operators live in
:mod:`diagonalis.seqspec`, majorization orders in
:mod:`diagonalis.majorization`, dense kernels and the finite identity
checks in :mod:`diagonalis.spectra`, the theorem deciders in
:mod:`diagonalis.deciders`, realizations in :mod:`diagonalis.constructors`
and brute-force cross-checks in :mod:`diagonalis.oracle`.

``import diagonalis`` loads no submodule: each public name below is imported
from its module on first access (PEP 562), so only what is used is loaded.
"""

_EXPORTS = {
    "scalars": ("INF", "QC", "ConvergenceError", "DiagonalisError", "InputError",
                "PreconditionError", "UnsupportedError", "XSum"),
    "seqspec": ("ConstantRepeat", "DiagonalizableSpec", "FiniteList", "FiniteSpectrumSpec",
                "Geometric", "MatrixSpec", "OrderedSequenceSpec", "SequenceSpec",
                "SpectralSummary", "TelescopingHarmonic", "abs_values", "affine_image",
                "essential_summary", "materialize_prefix", "seq", "sorted_prefix_desc",
                "split_parts", "tail_sum_after_top", "total_sum"),
    "majorization": ("MajorizationVerdict", "approx_p_majorize", "majorize_finite",
                     "majorize_l1", "majorize_spec", "p_majorize", "weak_majorize"),
    "spectra": ("DenseMatrix", "attain_numerical_range_vector", "essential_codimension_finite",
                "haar_unitary", "hermitian_eigensystem", "hermitian_eigenvalues",
                "numerical_range_support", "singular_values",
                "verify_kadison_codimension_identity", "verify_normal_codimension_identity"),
    "deciders": ("Decision", "check_arveson", "check_blaschke", "check_fan_criterion",
                 "check_mt_p_summable", "classify_trace_set", "decide_bownik_jasper",
                 "decide_gohberg_markus", "decide_horn_unitary", "decide_jlw_unitary",
                 "decide_kadison", "decide_kw", "decide_neumann_closure",
                 "decide_schur_horn", "decide_thompson", "decide_thompson_compact",
                 "decide_three_point", "decide_williams_3x3"),
    "constructors": ("NotFound", "Realization", "construct_kadison_block",
                     "construct_projection_with_diagonal", "construct_schur_horn",
                     "construct_thompson", "construct_unitary_with_diagonal",
                     "construct_williams", "construct_zero_diagonal_basis",
                     "convex_decomposition"),
    "oracle": ("Found", "SearchNotFound", "rational_majorization_oracle",
               "sample_diagonals", "search_membership"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
