"""The CLI's tag table: one request per tag, golden output digests, and the
requests that must run without importing numpy."""

import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from diagonalis import cli

SRC = Path(__file__).resolve().parents[1] / "src"
README = Path(__file__).resolve().parents[1] / "README.md"


def num(x, exact):
    """A real scalar on the wire: "p/q" in exact mode, a JSON number in float mode."""
    return str(F(x)) if exact else float(F(x))


def pair(re_, im, exact):
    return [num(re_, exact), num(im, exact)]


def fin(exact, *values):
    return {"kind": "finite", "values": [num(v, exact) for v in values]}


def geo(exact, first, ratio):
    return {"kind": "geometric", "first": num(first, exact), "ratio": num(ratio, exact)}


def const(exact, value, count="inf"):
    return {"kind": "const", "value": num(value, exact), "count": count}


def tel(exact, scale):
    return {"kind": "telescoping", "scale": num(scale, exact)}


def spec(exact, *streams):
    return {"field": "real", "exact": exact, "streams": list(streams)}


def ordered(exact, prefix, *tail):
    return {"ordered": True, "field": "real", "exact": exact,
            "prefix": [num(v, exact) for v in prefix],
            "tail": [{"stream": s, "weight": 1} for s in tail]}


def points(exact, *pts):
    """A finite-spectrum operator spec; a point is a value or (value, multiplicity)."""
    pts = [p if isinstance(p, tuple) else (p, "inf") for p in pts]
    return {"variant": "finite_spectrum", "exact": exact,
            "points": [[num(v, exact), m] for v, m in pts]}


def js(obj):
    return json.dumps(obj, separators=(",", ":"))


def reals(exact, *values):
    return js([num(v, exact) for v in values])


def mode(exact):
    return ["--exact"] if exact else []


def _majorization(e):
    half = js(spec(e, geo(e, "1/2", "1/2")))
    return [
        ["--kind", "finite", "--d", reals(e, 2, 1, 1), "--lambda", reals(e, 3, 1, 0), *mode(e)],
        ["--kind", "weak", "--d", half, "--lambda", js(spec(e, tel(e, 1)))],
        ["--kind", "l1", "--d", half, "--lambda", half],
        ["--kind", "p", "--p", "inf", "--d", js(spec(e, tel(e, 1))), "--lambda", half],
        ["--kind", "approx-p", "--p", "1", "--d", half,
         "--lambda", js(spec(e, geo(e, "1/2", "1/3")))],
    ]


# decide tag -> exact flag -> argument lists that follow ``decide <tag>``
DECIDE_REQUESTS = {
    "schur-horn": lambda e: [["--lambda", reals(e, 3, 1, 0), "--d", reals(e, 2, 1, 1), *mode(e)]],
    "majorization": _majorization,
    "gohberg-markus": lambda e: [[
        "--lambda", js(spec(e, geo(e, 1, "1/2"), geo(e, -1, "1/2"))),
        "--d", js(spec(e, const(e, 0)))]],
    "kw": lambda e: [["--s", js(spec(e, geo(e, "1/2", "1/2"))), "--kernel-dim", "inf",
                      "--d", js(spec(e, tel(e, 1)))]],
    "kadison": lambda e: [["--d", js(spec(e, fin(e, "1/3"), const(e, 0)))]],
    "bownik-jasper": lambda e: [["--points", reals(e, 0, "1/3", 1),
                                 "--d", js(spec(e, fin(e, "1/3"), const(e, 0), const(e, 1)))]],
    "neumann": lambda e: [[
        "--spec", js(points(e, 0, 1, (2, 1))),
        "--d", js(spec(e, fin(e, "3/2"), const(e, "1/2")))]],
    "blaschke": lambda e: [["--spec", js(points(e, 0, 1)),
                            "--d", js(spec(e, const(e, "1/2")))]],
    "three-point": lambda e: [["--spec", js(points(e, 0, "1/2", 1)),
                               "--d", js(spec(e, const(e, 0, 5), const(e, "1/2")))]],
    "williams": lambda e: [[
        "--lambda", js([pair(0, 0, e), pair(1, 0, e), pair(0, 1, e)]),
        "--d", js([pair("3/10", "3/10", e), pair("2/5", "3/10", e), pair("3/10", "2/5", e)]),
        *mode(e)]],
    "arveson": lambda e: [["--vertices", js([pair(0, 0, e), pair(1, 0, e), pair(0, 1, e)]),
                           "--d", js(spec(e, fin(e, "1/2", "1/2"), const(e, 0))), *mode(e)]],
    "horn-unitary": lambda e: [["--d", reals(e, "1/2", "1/2", 0), *mode(e)],
                               ["--d", reals(e, 1, 0, 0), "--variant", "rotation", *mode(e)]],
    "jlw-unitary": lambda e: [["--d", js(spec(e, fin(e, "1/2", "1/2"), const(e, 1)))]],
    "thompson": lambda e: [["--s", reals(e, 3, 2, 1), "--d", reals(e, 2, 2, 2), *mode(e)]],
    "thompson-compact": lambda e: [["--s", js(spec(e, geo(e, "1/2", "1/2"))),
                                    "--d", js(spec(e, geo(e, "1/4", "1/2")))]],
    "mt-p-summable": lambda e: [["--spec", js(points(e, 0, "1/2", 1)),
                                 "--d", js(spec(e, const(e, "1/2"))), "--p", "2"]],
    "fan": lambda e: [["--d", js(ordered(e, [-1], geo(e, "1/2", "1/2")))]],
    "ffh-trace": lambda e: [[
        "--rays", js([[pair("3/5", "4/5", e) if e else 0.5, spec(e, geo(e, "1/2", "1/2"))]]),
        *mode(e)]],
}

MATRIX_2 = js({"n": 2, "real": True, "entries": [[0.5, 0], [0.5, 0], [0.5, 0], [0.5, 0]]})
NILPOTENT_2 = js({"n": 2, "real": False, "entries": [[0, 0], [1, 0], [0, 0], [0, 0]]})
NORMAL_2 = js({"n": 2, "real": False, "entries": [[1, 0], [0, 0], [0, 0], [0, 1]]})
DIAGONAL_2 = js({"n": 2, "real": False, "entries": [[0, 1], [0, 0], [0, 0], [1, 0]]})
PROJ_1 = js({"n": 2, "real": True, "entries": [[1, 0], [0, 0], [0, 0], [0, 0]]})
PROJ_2 = js({"n": 2, "real": True, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]})
WILLIAMS = ["--lambda", "[[0,0],[1,0],[0,1]]", "--d", "[[0.3,0.3],[0.4,0.3],[0.3,0.4]]"]

# construct target -> argument lists that follow ``construct <target>``
CONSTRUCT_REQUESTS = {
    "schur-horn": [["--lambda", "[3,1,0]", "--d", "[2,1,1]"],
                   ["--lambda", '["3","1","0"]', "--d", '["2","1","1"]', "--exact"]],
    "convex-decomposition": [["--lambda", "[3,1,0]", "--d", "[2,1,1]", "--exact"],
                             ["--lambda", "[3,1,0]", "--d", "[2,1,1]"]],
    "projection": [["--d", "[0.5,0.5,1]"], ["--d", '["2/3","2/3","2/3"]', "--exact"]],
    "kadison-block": [["--d", js(spec(True, fin(True, "1/2", "1/2"), const(True, 0),
                                      const(True, 1)))]],
    "zero-diagonal": [["--matrix", js({"n": 2, "real": True,
                                       "entries": [[1, 0], [0, 0], [0, 0], [-1, 0]]})]],
    "thompson": [["--s", "[3,2,1]", "--d", "[2.5,-1.5,0.5]", "--seed", "3"],
                 ["--s", "[3,2,1]", "--d", "[2,2,2]", "--budget", "0"]],
    "unitary": [["--d", "[1,0,0]"], ["--d", "[0.5,0.5,0]"]],
    "williams": [WILLIAMS, WILLIAMS + ["--budget", "64"]],
}

OTHER_REQUESTS = [
    ["verify", "matrix", "--matrix", MATRIX_2, "--eigenvalues", "[1,0]",
     "--singular-values", "[1,0]", "--diagonal", "[0.5,0.5]", "--tol", "1e-8"],
    ["verify", "matrix", "--matrix", MATRIX_2, "--diagonal", "[0.5,0.4]"],
    ["verify", "kadison-codimension", "--matrix", MATRIX_2],
    ["verify", "normal-codimension", "--n-matrix", NORMAL_2, "--n-prime", DIAGONAL_2],
    ["verify", "essential-codimension", "--p-matrix", PROJ_2, "--q-matrix", PROJ_1],
    ["oracle", "sample", "--matrix", NILPOTENT_2, "--trials", "3", "--seed", "9"],
    ["oracle", "search", "--matrix", PROJ_1, "--d", "[0.5,0.5]", "--budget", "2000",
     "--seed", "7"],
    ["oracle", "rational-majorization", "--d", '["2","1","1"]', "--lambda", '["3","1","0"]'],
    ["oracle", "rational-majorization", "--d", '["3","1"]', "--lambda", '["2","2"]'],
    ["range", "--matrix", NILPOTENT_2, "--grid", "16"],
    ["schema"],
    ["decide", "no-such-theorem", "--d", "[1]"],
    ["decide", "majorization", "--kind", "no-such-kind", "--d", "[1]", "--lambda", "[1]"],
    ["construct", "no-such-target", "--d", "[1]"],
]


def all_requests():
    """(id, argv) for every golden request, in a fixed order."""
    out = []
    for tag, make in DECIDE_REQUESTS.items():
        for exact in (True, False):
            for i, argv in enumerate(make(exact)):
                out.append((f"decide-{tag}-{'exact' if exact else 'float'}-{i}",
                            ["decide", tag, *argv]))
    for target, argvs in CONSTRUCT_REQUESTS.items():
        for i, argv in enumerate(argvs):
            out.append((f"construct-{target}-{i}", ["construct", target, *argv]))
    for i, argv in enumerate(OTHER_REQUESTS):
        out.append((f"{argv[0]}-{i}", argv))
    return out


def digest(code, out):
    """Digest of a request's exit code and stdout; GOLDEN holds them as
    recorded before the tag table replaced the CLI's if/elif dispatch."""
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()[:16]


GOLDEN = {
    "decide-schur-horn-exact-0": "e10ed3ebb1d3ec41",
    "decide-schur-horn-float-0": "09a9e8481bf3ea7d",
    "decide-majorization-exact-0": "eec1b3d55c93d67a",
    "decide-majorization-exact-1": "346e9424f04936ea",
    "decide-majorization-exact-2": "eec1b3d55c93d67a",
    "decide-majorization-exact-3": "f59f07f263819cf8",
    "decide-majorization-exact-4": "67e8c24ba78981a4",
    "decide-majorization-float-0": "30c0261cb32d4b0e",
    "decide-majorization-float-1": "65f82fa1d0ed6be0",
    "decide-majorization-float-2": "30c0261cb32d4b0e",
    "decide-majorization-float-3": "624baef4d7fa7c4f",
    "decide-majorization-float-4": "487ed561a3539acc",
    "decide-gohberg-markus-exact-0": "c546af3417826baa",
    "decide-gohberg-markus-float-0": "7ed0d4b0834b5cb3",
    "decide-kw-exact-0": "98d3302bf447203c",
    "decide-kw-float-0": "e5443cb99237eae3",
    "decide-kadison-exact-0": "04c26da044f8bc73",
    "decide-kadison-float-0": "f0be3754d2a023dc",
    "decide-bownik-jasper-exact-0": "60307295ad41cb0a",
    "decide-bownik-jasper-float-0": "731e52f91d6d4ff0",
    "decide-neumann-exact-0": "1059dc96a9916d6c",
    "decide-neumann-float-0": "130bb401686191d5",
    "decide-blaschke-exact-0": "b4385d1cb1ac6fc6",
    "decide-blaschke-float-0": "32cb33ec671f1a85",
    "decide-three-point-exact-0": "a866a0622f37d17d",
    "decide-three-point-float-0": "2d6187b674fecc7a",
    "decide-williams-exact-0": "38fcad4b7d52726e",
    "decide-williams-float-0": "eb6a3782d0361be7",
    "decide-arveson-exact-0": "99cfaf1b0fb1c0a7",
    "decide-arveson-float-0": "dece9320963d3645",
    "decide-horn-unitary-exact-0": "cf7c0b3eeb54cb4c",
    "decide-horn-unitary-exact-1": "1f173e0efc75abaf",
    "decide-horn-unitary-float-0": "6b88b5d897bb225d",
    "decide-horn-unitary-float-1": "b768085a66c9e37c",
    "decide-jlw-unitary-exact-0": "b0fa941d99ab2dc6",
    "decide-jlw-unitary-float-0": "b1005e1b88a9347b",
    "decide-thompson-exact-0": "44142d1b3850b000",
    "decide-thompson-float-0": "4b4f18db61a80721",
    "decide-thompson-compact-exact-0": "fb342ed154d2e8be",
    "decide-thompson-compact-float-0": "e96281e871f252cc",
    "decide-mt-p-summable-exact-0": "3cf0b88bb6923893",
    "decide-mt-p-summable-float-0": "b469ecd5da331b34",
    "decide-fan-exact-0": "1028eeb3dddcdab7",
    "decide-fan-float-0": "d83aa8960047f322",
    "decide-ffh-trace-exact-0": "fa6592360d356d3f",
    "decide-ffh-trace-float-0": "26235653e6b22753",
    "construct-schur-horn-0": "0839ed82cb15f612",
    "construct-schur-horn-1": "0839ed82cb15f612",
    "construct-convex-decomposition-0": "8191a5d525fc9e0a",
    "construct-convex-decomposition-1": "2e38e0b407989be2",
    "construct-projection-0": "9f84c0e30484dde8",
    # re-recorded: the Givens chain keeps its upper triangle and mirrors it,
    # so entry (2, 1) now equals (1, 2), -0.33333333333333326, in the last bit
    "construct-projection-1": "6d307dd83dbf976a",
    "construct-kadison-block-0": "93151dc40caaa6cd",
    # re-recorded: the zero-diagonal basis is a chain of 2x2 turns (method
    # rotation-chain), here one turn of diag(1, -1) by a quarter of pi
    "construct-zero-diagonal-0": "92a5e405e755354b",
    # re-recorded: the 2x2 rotation chain replaced the alternating-projection
    # search, and -1 (a boundary instance) now builds instead of NotFound
    "construct-thompson-0": "b4fb35a10f7bdff3",
    "construct-thompson-1": "53e0264b0548ee97",
    # re-recorded: the Thompson chain at s = (1, ..., 1) builds the unitary,
    # and the 3x3 Williams matrix is built in closed form (no phase grid)
    "construct-unitary-0": "404831b9f8c5860c",
    "construct-unitary-1": "1221baab48455976",
    "construct-williams-0": "a34f76549ce59ab4",
    "construct-williams-1": "a34f76549ce59ab4",
    # re-recorded: singular values come from LAPACK, whose residual here is
    # 0.0 where the Gram route read 1.1e-16
    "verify-0": "250b7452a3e150ba",
    "verify-1": "11d8af94ce7ec42a",
    "verify-2": "618a5961932770e5",
    # re-recorded: this request used to fail with a TypeError (a numpy bool
    # in the report), see TestDenseBoundary in test_cli.py
    "verify-3": "2c2c1375a982091e",
    "verify-4": "8802203ebed0199c",
    "oracle-5": "efd97d0e70bd116e",
    "oracle-6": "04ea2d7aa2f42b01",
    "oracle-7": "1a6d4526a58e9e3e",
    "oracle-8": "4a76f681f7222718",
    "range-9": "2193881b6cf1f6b0",
    "schema-10": "da0ed5f3320c470e",
    "decide-11": "fbc558f5617a99ef",
    "decide-12": "cfd0453a4719601a",
    "construct-13": "274304f9dcb7e6c2",
}


def _entries(entry):
    """The table entries of one tag: one, or one per --kind."""
    return list(entry.values()) if isinstance(entry, dict) else [entry]


def _decoders(entry):
    return {decoder for e in _entries(entry) for _, decoder in e[2]}


class TestTable:
    def test_every_tag_and_target_has_a_request(self):
        assert list(DECIDE_REQUESTS) == list(cli.DECIDE)
        assert list(CONSTRUCT_REQUESTS) == list(cli.CONSTRUCT)
        kinds = [argv[argv.index("--kind") + 1] for argv in _majorization(True)]
        assert kinds == list(cli.DECIDE["majorization"])
        assert len(cli.DECIDE) == 18 and len(cli.CONSTRUCT) == 8

    def test_every_entry_names_a_function(self):
        from importlib import import_module
        for entry in [*cli.DECIDE.values(), *cli.CONSTRUCT.values()]:
            for module, function, _ in _entries(entry):
                assert callable(getattr(import_module(f"diagonalis.{module}"), function))

    def test_no_constructor_takes_a_budget_or_seed(self):
        from importlib import import_module
        from inspect import signature
        for module, function, arguments in cli.CONSTRUCT.values():
            params = signature(getattr(import_module(f"diagonalis.{module}"), function)).parameters
            assert not {"budget", "seed"} & {*params, *(option for option, _ in arguments)}, \
                function

    def test_only_matrix_specs_load_numpy(self):
        # no decide argument is a matrix, and of the operator specs only the
        # matrix variant loads numpy (the probe below runs one of each)
        assert not any(cli._matrix in _decoders(entry) for entry in cli.DECIDE.values())
        assert sorted(tag for tag, entry in cli.DECIDE.items()
                      if cli._operator in _decoders(entry)) == \
            ["blaschke", "mt-p-summable", "neumann", "three-point"]
        out = _probe([["decide", "neumann", "--spec", js(points(True, 0, 1)),
                       "--d", js(spec(True, const(True, "1/2")))],
                      ["decide", "neumann", "--spec", MATRIX_SPEC,
                       "--d", js(spec(True, const(True, "1/2")))]])
        assert out["codes"] == [0, 3] and out["numpy"] == [False, True]
        assert "diagonalis.spectra" in out["loaded"]

    def test_readme_lists_the_table(self):
        text = " ".join(README.read_text().split())
        tags = re.search(r"Theorem tags for `decide`: (.*?)\. Construction targets", text)[1]
        targets = re.search(r"Construction targets: (.*?)\.", text)[1]
        kinds = re.search(r"`majorization` \(`--kind ([a-z1|-]+)`\)", text)[1]
        assert re.findall(r"`([a-z1-]+)`", tags) == list(cli.DECIDE)
        assert re.findall(r"`([a-z-]+)`", targets) == list(cli.CONSTRUCT)
        assert kinds.split("|") == list(cli.DECIDE["majorization"])


@pytest.mark.parametrize("rid,argv", all_requests(), ids=[r for r, _ in all_requests()])
def test_golden_output(capsys, rid, argv):
    code = cli.run(list(argv))
    assert digest(code, capsys.readouterr().out) == GOLDEN[rid]


def test_golden_covers_every_request():
    assert sorted(GOLDEN) == sorted(r for r, _ in all_requests())


# Runs in a fresh interpreter: a bare import first, then each request through
# ``python -m diagonalis`` (its __main__ module), noting after each whether
# numpy has been loaded.
_PROBE = """
import contextlib, io, json, runpy, sys
before = set(sys.modules)
import diagonalis
bare = sorted(set(sys.modules) - before)
codes, numpy = [], []
for argv in json.loads(sys.argv[1]):
    sys.argv = ["diagonalis", *argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            runpy.run_module("diagonalis", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            codes.append(exc.code)
    numpy.append("numpy" in sys.modules)
print(json.dumps({"bare": bare, "codes": codes, "numpy": numpy,
                  "loaded": sorted(m for m in sys.modules if m.startswith("diagonalis"))}))
"""

MATRIX_SPEC = js({"variant": "matrix", "matrix": json.loads(MATRIX_2)})


def _probe(requests):
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(requests)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_numpy_free_requests_never_import_numpy():
    requests = [["decide", tag, *argv] for tag in cli.DECIDE for exact in (True, False)
                for argv in DECIDE_REQUESTS[tag](exact)]
    out = _probe(requests)
    assert out["bare"] == ["diagonalis"]
    assert len(out["codes"]) == len(requests) >= 2 * len(cli.DECIDE)
    assert all(code in (0, 1, 2) for code in out["codes"]), out["codes"]
    assert not any(out["numpy"])
    assert not {"diagonalis.spectra", "diagonalis.constructors",
                "diagonalis.oracle"} & set(out["loaded"])
