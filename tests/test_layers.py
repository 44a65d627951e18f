"""The decision layer stands alone: no module of it imports numpy or a
matrix, construction, search or CLI module, at module level or inside a
function, and the operator models live with the sequence models."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "diagonalis"
DECISION_LAYER = ("scalars", "seqspec", "majorization", "deciders")
FORBIDDEN = {"numpy", ".spectra", ".constructors", ".oracle", ".cli"}
OPERATOR_MODELS = {"MatrixSpec", "FiniteSpectrumSpec", "DiagonalizableSpec",
                   "FiniteDimensionalError", "SpectralSummary", "eigen_multiset",
                   "essential_points", "essential_summary", "operator_affine_image"}


def _tree(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def _imports(tree):
    """(imported module, line, inside a function) for every import statement;
    a relative import is named by its leading dots and module, and
    ``from . import x`` by ``.x``."""
    local = {id(node) for f in ast.walk(tree)
             if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(f) if node is not f}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names = ([base + alias.name for alias in node.names] if node.module is None
                     else [base])
        else:
            continue
        out += [(name, node.lineno, id(node) in local) for name in names]
    return out


@pytest.mark.parametrize("module", DECISION_LAYER)
def test_decision_layer_imports_no_matrix_module(module):
    bad = [(name, line) for name, line, _ in _imports(_tree(module))
           if name.split(".")[0] == "numpy" or name in FORBIDDEN]
    assert not bad, bad


def test_deciders_import_at_module_level_from_the_decision_layer():
    imports = _imports(_tree("deciders"))
    assert not [(name, line) for name, line, local in imports if local]
    allowed = {".scalars", ".seqspec", ".majorization", ".jsonio"}
    assert not {name for name, _, _ in imports
                if name not in allowed and name.split(".")[0] not in sys.stdlib_module_names}


def test_operator_models_live_in_seqspec():
    assert not (PACKAGE / "ratlinalg.py").exists()

    def defined(module):
        return {node.name for node in _tree(module).body
                if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    assert not OPERATOR_MODELS & defined("spectra")
    assert OPERATOR_MODELS <= defined("seqspec")


def test_operator_specs_are_coded_without_local_imports():
    coders = [node for node in _tree("jsonio").body if isinstance(node, ast.FunctionDef)
              and node.name in ("decode_operator", "encode_operator")]
    assert len(coders) == 2
    assert not [node for f in coders for node in ast.walk(f)
                if isinstance(node, (ast.Import, ast.ImportFrom))]
