import json
import sys
import time
from fractions import Fraction as F

import pytest

from diagonalis import cli
from diagonalis.cli import run


def strict_json(text):
    """json.loads that refuses the Infinity and NaN literals, which JSON lacks."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, strict_json(out)


GEO_HALF = '{"field":"real","exact":true,"streams":[{"kind":"geometric","first":"1/2","ratio":"1/2"}]}'
THIRD_WITH_ZEROS = ('{"field":"real","exact":true,"streams":['
                    '{"kind":"finite","values":["1/3"]},'
                    '{"kind":"const","value":0,"count":"inf"}]}')


class TestDecide:
    def test_kadison_no_exit_one(self, capsys):
        code, body = invoke(capsys, "decide", "kadison", "--d", THIRD_WITH_ZEROS)
        assert code == 1
        assert body["verdict"] == "No"
        assert body["certificate"]["a"] == {"kind": "finite", "value": "1/3"}

    def test_schur_horn_inline(self, capsys):
        code, body = invoke(capsys, "decide", "schur-horn",
                            "--lambda", "[3,1,0]", "--d", "[2,1,1]", "--exact")
        assert code == 0
        assert body["verdict"] == "Yes"
        assert body["mode"] == "exact"

    def test_majorization_p(self, capsys):
        code, body = invoke(
            capsys, "decide", "majorization", "--kind", "p", "--p", "inf",
            "--d", '{"field":"real","exact":true,"streams":[{"kind":"telescoping","scale":1}]}',
            "--lambda", GEO_HALF)
        assert code == 0 and body["verdict"] == "Holds"

    def test_two_tail_weak_majorization_holds_quickly(self, capsys):
        both = json.dumps({"field": "real", "exact": True, "streams": [
            {"kind": "geometric", "first": "1/3", "ratio": "1/2"},
            {"kind": "geometric", "first": "1/4", "ratio": "1/5"}]})
        argv = ["decide", "majorization", "--kind", "weak", "--d", both, "--lambda", both]
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            code = run(argv)
            times.append(time.perf_counter() - t0)
            body = json.loads(capsys.readouterr().out)
            assert code == 0 and body["verdict"] == "Holds"
        assert sorted(times)[2] < 0.05

    def test_unknown_tag_is_error(self, capsys):
        code, body = invoke(capsys, "decide", "no-such-theorem", "--d", "[1]")
        assert code == 3
        assert "error" in body

    def test_three_point(self, capsys):
        spec = ('{"variant":"finite_spectrum","points":'
                '[["0","inf"],["1/2","inf"],["1","inf"]]}')
        d = '{"field":"real","exact":true,"streams":[{"kind":"const","value":"1/2","count":"inf"}]}'
        code, body = invoke(capsys, "decide", "three-point", "--spec", spec, "--d", d)
        assert code == 0 and body["verdict"] == "Yes"

    @pytest.mark.usefixtures("no_exact_float")
    def test_ffh(self, capsys):
        # with --exact a unit [re, im] direction is a QC: classified exactly
        rays = json.dumps([[["3/5", "4/5"], json.loads(GEO_HALF)]])
        code, body = invoke(capsys, "decide", "ffh-trace", "--exact", "--rays", rays)
        assert code == 0 and body == {"kind": "Point", "value": ["3/5", "4/5"]}

    def test_ffh_angle(self, capsys):
        rays = json.dumps([[0.0, json.loads(GEO_HALF)]])
        code, body = invoke(capsys, "decide", "ffh-trace", "--rays", rays)
        assert code == 0 and body == {"kind": "Point", "value": [1.0, 0.0]}


class TestConstruct:
    def test_schur_horn(self, capsys):
        code, body = invoke(capsys, "construct", "schur-horn",
                            "--lambda", "[3,1,0]", "--d", "[2,1,1]")
        assert code == 0
        assert body["residuals"]["diagonal"] <= 1e-10
        assert body["matrix"]["n"] == 3

    def test_unitary(self, capsys):
        code, body = invoke(capsys, "construct", "unitary", "--d", "[1,0,0]")
        assert code == 0
        assert body["residuals"]["unitarity"] <= 1e-10

    def test_precondition_error(self, capsys):
        code, body = invoke(capsys, "construct", "schur-horn",
                            "--lambda", "[1,0]", "--d", "[1.5,-0.5]")
        assert code == 3 and body["type"] == "PreconditionError"


WILLIAMS_ARGS = ["--lambda", "[[0,0],[1,0],[0,1]]",
                 "--d", "[[0.3,0.3],[0.4,0.3],[0.3,0.4]]"]


class TestZeroBudget:
    def test_oracle_search_makes_no_evaluation(self, capsys, monkeypatch):
        def no_restart(*args, **kwargs):
            raise AssertionError("a restart was drawn")
        monkeypatch.setattr("diagonalis.oracle.haar_unitary", no_restart)
        mat = json.dumps({"n": 2, "real": True,
                          "entries": [[1, 0], [0, 0], [0, 0], [0, 0]]})
        code, body = invoke(capsys, "oracle", "search", "--matrix", mat,
                            "--d", "[0.5,0.5]", "--budget", "0")
        assert code == 2
        assert body == {"found": False, "budget": 0, "best_residual": None}

    def test_williams_ignores_budget(self, capsys):
        # the closed form spends no budget, so --budget is parsed and not read
        outs = set()
        for budget in (["--budget", "0"], ["--budget", "-5"], []):
            assert run(["construct", "williams", *WILLIAMS_ARGS, *budget]) == 0
            outs.add(capsys.readouterr().out)
        assert len(outs) == 1

    @pytest.mark.parametrize("argv", [
        ["oracle", "search", "--matrix", '{"n":1,"real":true,"entries":[[1,0]]}',
         "--d", "[1]", "--budget", "-5"],
        ["oracle", "sample", "--matrix", '{"n":1,"real":true,"entries":[[1,0]]}',
         "--trials", "-1"],
        ["decide", "kw", "--s", GEO_HALF, "--kernel-dim", "-1", "--d", GEO_HALF],
        ["decide", "majorization", "--kind", "weak", "--horizon", "-5",
         "--d", GEO_HALF, "--lambda", GEO_HALF],
    ])
    def test_negative_count_is_precondition_error(self, capsys, argv):
        code, body = invoke(capsys, *argv)
        assert code == 3
        assert body["type"] == "PreconditionError"

    def test_non_finite_constant_is_rejected(self):
        with pytest.raises(ValueError):
            strict_json('{"best_residual":Infinity}')


class TestVerifyOracleRange:
    def test_verify_matrix(self, capsys):
        mat = json.dumps({"n": 2, "real": True,
                          "entries": [[0.5, 0], [0.5, 0], [0.5, 0], [0.5, 0]]})
        code, body = invoke(capsys, "verify", "matrix", "--matrix", mat,
                            "--eigenvalues", "[1,0]", "--diagonal", "[0.5,0.5]",
                            "--tol", "1e-8")
        assert code == 0 and body["ok"]

    def test_verify_rank_deficient_thompson_realization(self, capsys):
        # the Gram route read a zero singular value of this matrix as 9e-9
        code, body = invoke(capsys, "construct", "thompson", "--s", "[1,1,0]",
                            "--d", "[0.438,-0.172,-0.09]")
        assert code == 0
        code, body = invoke(capsys, "verify", "matrix", "--matrix", json.dumps(body["matrix"]),
                            "--singular-values", "[1,1,0]")
        assert code == 0 and body["ok"] and body["singular_residual"] <= 1e-15

    def test_verify_kadison_codimension(self, capsys):
        mat = json.dumps({"n": 2, "real": True,
                          "entries": [[0.5, 0], [0.5, 0], [0.5, 0], [0.5, 0]]})
        code, body = invoke(capsys, "verify", "kadison-codimension", "--matrix", mat)
        assert code == 0 and body["ok"] and body["lhs"] == -1.0

    def test_oracle_rational(self, capsys):
        code, body = invoke(capsys, "oracle", "rational-majorization",
                            "--d", '["2","1","1"]', "--lambda", '["3","1","0"]',
                            "--exact")
        assert code == 0 and body["verdict"] == "Holds"

    def test_oracle_sample_deterministic(self, capsys):
        mat = json.dumps({"n": 2, "real": True,
                          "entries": [[1, 0], [0, 0], [0, 0], [0, 0]]})
        code1, body1 = invoke(capsys, "oracle", "sample", "--matrix", mat,
                              "--trials", "3", "--seed", "9")
        code2, body2 = invoke(capsys, "oracle", "sample", "--matrix", mat,
                              "--trials", "3", "--seed", "9")
        assert code1 == code2 == 0
        assert body1 == body2

    def test_range(self, capsys):
        mat = json.dumps({"n": 2, "real": False,
                          "entries": [[0, 0], [1, 0], [0, 0], [0, 0]]})
        code, body = invoke(capsys, "range", "--matrix", mat, "--grid", "16")
        assert code == 0
        radii = [abs(complex(x, y)) for x, y in body["hull"]]
        assert max(radii) <= 0.5 + 1e-9

    def test_schema(self, capsys):
        code, body = invoke(capsys, "schema")
        assert code == 0
        assert "sequence_spec" in body

    def test_malformed_json(self, capsys):
        code, body = invoke(capsys, "decide", "kadison", "--d", "{broken")
        assert code == 3


class TestParserReuse:
    REQUESTS = [
        ("decide", "majorization", "--kind", "weak", "--d", GEO_HALF, "--lambda", GEO_HALF),
        ("decide", "kadison", "--d", THIRD_WITH_ZEROS),
        ("decide", "schur-horn", "--lambda", "[3,1,0]", "--d", "[2,1,1]", "--exact"),
        ("construct", "convex-decomposition", "--lambda", "[3,1,0]", "--d", "[2,1,1]",
         "--exact"),
        ("schema",),
    ]

    def test_one_parser_per_process(self):
        assert cli._parser() is cli._parser()

    def test_repeated_runs_byte_identical(self, capsys):
        first = []
        for argv in self.REQUESTS:
            first.append((run(list(argv)), capsys.readouterr()))
        for _ in range(3):
            for argv, want in zip(self.REQUESTS, first):
                assert (run(list(argv)), capsys.readouterr()) == want

    def test_error_and_help_leave_next_request_alone(self, capsys):
        argv = list(self.REQUESTS[0])
        want = (run(argv), capsys.readouterr().out)
        assert run(["decide", "majorization", "--horizon", "many"]) == 3
        assert run(["decide"]) == 3
        capsys.readouterr()
        assert run(["--help"]) == 0
        assert "usage: diagonalis" in capsys.readouterr().out
        assert run(["decide", "--help"]) == 0
        capsys.readouterr()
        assert (run(argv), capsys.readouterr().out) == want


class TestBigExactOutput:
    def test_weak_witness_beyond_int_str_limit(self, capsys):
        # the exact witness of geo(1/1000, 999/1000) vs tel(1) has integers
        # far longer than the default int-to-str limit of 4300 digits
        d = ('{"field":"real","exact":true,"streams":'
             '[{"kind":"geometric","first":"1/1000","ratio":"999/1000"}]}')
        lam = '{"field":"real","exact":true,"streams":[{"kind":"telescoping","scale":"1"}]}'
        limit = sys.get_int_max_str_digits()
        code, body = invoke(capsys, "decide", "majorization", "--kind", "weak",
                            "--d", d, "--lambda", lam)
        assert sys.get_int_max_str_digits() == limit
        assert code == 1 and body["verdict"] == "Fails"
        w = body["witness"]
        m = w["index"]
        lhs, rhs = 1 - F(999, 1000) ** m, 1 - F(1, m + 1)
        assert lhs > rhs
        try:
            sys.set_int_max_str_digits(0)
            assert w["lhs"] == str(lhs) and w["rhs"] == str(rhs)
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(w["lhs"]) > 2 * 4300

    def test_every_exact_encoder_prints_big_values(self):
        from diagonalis import jsonio
        from diagonalis.scalars import QC, fraction_str
        for x in (F(0), F(-7), F(3, 4), F(-22, 7), F(10 ** 40 + 1, 3)):
            assert fraction_str(x) == str(x)
        huge = F(-(10 ** 5000) - 1, 3)
        text = "-1" + "0" * 4999 + "1/3"
        assert fraction_str(huge) == text
        assert fraction_str(F(10 ** 5000)) == "1" + "0" * 5000
        assert jsonio.encode(huge) == text
        assert jsonio.encode(QC(huge, F(1, 2))) == [text, "1/2"]
        assert jsonio.encode({"x": [huge, QC(F(1, 2), huge)]}) == \
            {"x": [text, ["1/2", text]]}


class TestEncoderBranches:
    """Wire forms that the golden table never prints: -inf and divergent
    sums, infinite counts, exact complex values, numpy scalars and a search
    that ran no restart."""

    @staticmethod
    def wire(obj):
        from diagonalis import jsonio
        return jsonio.dumps(obj).strip()

    def test_extended_sums_in_a_certificate(self):
        from diagonalis.deciders import Decision
        from diagonalis.scalars import XSum
        cert = {"sums": [XSum.fin(F(1, 2)), XSum.pinf(), XSum.ninf(), XSum.div(),
                         XSum.fin(0.25)]}
        assert self.wire(Decision("Unknown", "t", cert, "exact").as_json()["certificate"]) == (
            '{"sums":[{"kind":"finite","value":"1/2"},{"kind":"+inf"},{"kind":"-inf"},'
            '{"kind":"divergent"},{"kind":"finite","value":0.25}]}')

    def test_infinite_counts(self):
        from diagonalis import jsonio
        from diagonalis.deciders import Decision
        from diagonalis.scalars import INF
        from diagonalis.seqspec import ConstantRepeat, FiniteList, SequenceSpec
        spec = SequenceSpec((FiniteList([F(1, 3)]), ConstantRepeat(F(0), INF),
                             ConstantRepeat(F(1), 2)), "real", True)
        assert self.wire(jsonio.encode_sequence(spec)) == (
            '{"exact":true,"field":"real","streams":[{"kind":"finite","values":["1/3"]},'
            '{"count":"inf","kind":"const","value":"0"},{"count":2,"kind":"const","value":"1"}]}')
        assert self.wire(Decision("Yes", "t", {"kernel_dim": INF}).as_json()) == (
            '{"certificate":{"kernel_dim":"inf"},"mode":"exact","theorem":"t","verdict":"Yes"}')

    def test_exact_complex_values(self):
        from diagonalis.deciders import Decision, TraceSetClass, decide_williams_3x3
        from diagonalis.majorization import MajorizationVerdict
        from diagonalis.scalars import QC
        z = QC(F(1, 3), F(-2, 5))
        assert self.wire(Decision("No", "t", {"z": z, "zs": (z, F(3))}).as_json()) == (
            '{"certificate":{"z":["1/3","-2/5"],"zs":[["1/3","-2/5"],"3"]},'
            '"mode":"exact","theorem":"t","verdict":"No"}')
        assert self.wire(TraceSetClass("Line", direction=z, offset=F(1, 7)).as_json()) == \
            '{"direction":["1/3","-2/5"],"kind":"Line","offset":"1/7"}'
        assert self.wire(TraceSetClass("Point", value=QC(F(0), F(1))).as_json()) == \
            '{"kind":"Point","value":["0","1"]}'
        v = MajorizationVerdict("Fails", "exact", witness=(4, F(7, 3), F(2)))
        assert self.wire(v.as_json()) == \
            '{"mode":"exact","verdict":"Fails","witness":{"index":4,"lhs":"7/3","rhs":"2"}}'
        # the edge case of Williams's theorem reports its reflected point exactly
        lam = [QC(F(0), F(0)), QC(F(1), F(0)), QC(F(0), F(1))]
        d = [QC(F(1, 2), F(0)), QC(F(1, 4), F(1, 2)), QC(F(1, 4), F(1, 2))]
        cert = json.loads(self.wire(decide_williams_3x3(lam, d).as_json()))["certificate"]
        assert cert["clause"] == "edge case" and cert["reflected_d1"] == ["1/2", "0"]

    def test_numpy_scalars(self):
        import numpy as np

        from diagonalis import jsonio
        from diagonalis.deciders import Decision
        from diagonalis.majorization import MajorizationVerdict
        from diagonalis.seqspec import FiniteList, SequenceSpec
        from diagonalis.spectra import IdentityReport
        cert = {"i": np.int64(3), "x": np.float64(0.25), "z": np.complex128(1 - 2j),
                "xs": [np.float32(0.5), np.int32(-1)]}
        assert self.wire(Decision("Yes", "t", cert, "float").as_json()["certificate"]) == \
            '{"i":3,"x":0.25,"xs":[0.5,-1],"z":[1.0,-2.0]}'
        spec = SequenceSpec((FiniteList([np.float64(0.25), np.complex128(0.5 + 1j)]),),
                            "complex", False)
        assert self.wire(jsonio.encode_sequence(spec)) == (
            '{"exact":false,"field":"complex","streams":'
            '[{"kind":"finite","values":[0.25,[0.5,1.0]]}]}')
        v = MajorizationVerdict("Fails", "float", witness=(2, np.float64(1.5), 1.25))
        assert self.wire(v.as_json()["witness"]) == '{"index":2,"lhs":1.5,"rhs":1.25}'
        rep = IdentityReport(np.int64(1), np.int64(1), np.float64(0.0), True,
                             {"rank": np.int64(2)})
        assert self.wire(rep.as_json()) == \
            '{"detail":{"rank":2},"lhs":1,"ok":true,"residual":0.0,"rhs":1}'

    def test_search_without_restart_prints_null(self):
        import math

        import numpy as np

        from diagonalis.constructors import NotFound
        from diagonalis.oracle import SearchNotFound
        for best in (math.inf, np.float64(math.inf), math.nan):
            assert self.wire(SearchNotFound(0, best).as_json()) == \
                '{"best_residual":null,"budget":0,"found":false}'
            assert self.wire(NotFound(5, best).as_json()) == \
                '{"best_residual":null,"budget":5,"not_found":true}'
        assert self.wire(SearchNotFound(3, np.float64(0.125)).as_json()) == \
            '{"best_residual":0.125,"budget":3,"found":false}'
        assert self.wire(NotFound(3, 0.125).as_json()) == \
            '{"best_residual":0.125,"budget":3,"not_found":true}'


class TestRoundTrip:
    def test_sequence_round_trip(self):
        from diagonalis import jsonio
        spec = jsonio.decode_sequence(json.loads(GEO_HALF))
        again = jsonio.decode_sequence(jsonio.encode_sequence(spec))
        assert again == spec

    def test_operator_round_trip(self):
        from diagonalis import jsonio
        raw = {"variant": "diagonalizable",
               "eigs": json.loads(GEO_HALF), "kernel_dim": "inf"}
        spec = jsonio.decode_operator(raw)
        assert jsonio.decode_operator(jsonio.encode_operator(spec)) == spec

    def test_peeled_telescoping_tail_has_no_wire_format(self):
        from diagonalis import jsonio
        from diagonalis.scalars import InputError
        from diagonalis.seqspec import TelescopingHarmonic, _peel_head_by_gap
        head, tail = _peel_head_by_gap(TelescopingHarmonic(F(1)), F(1, 10))
        assert head == [F(1, 2), F(1, 6)] and tail == TelescopingHarmonic(F(1), 0, 3)
        with pytest.raises(InputError):
            jsonio.encode_stream(tail)

    def test_matrix_round_trip(self):
        from diagonalis import jsonio
        raw = {"n": 2, "real": False, "entries": [[1, 2], [0, 0], [3, -1], [0.5, 0]]}
        m = jsonio.decode_matrix(raw)
        again = jsonio.decode_matrix(jsonio.encode_matrix(m))
        assert (again.data == m.data).all()


class TestInputBoundary:
    def test_missing_stream_field_is_input_error(self, capsys):
        d = '{"field":"real","exact":true,"streams":[{"kind":"finite"}]}'
        code, body = invoke(capsys, "decide", "kadison", "--d", d)
        assert code == 3 and body["type"] == "InputError"

    _GEO = '{"kind":"geometric","first":"1/4","ratio":"1/2"}'
    _ORDERED = '{"ordered":true,"field":"real","exact":true,"prefix":["1/2"],"tail":[%s]}'
    _CONST = '{"field":"real","exact":true,"streams":[{"kind":"const","value":"1/2","count":%s}]}'
    _DIAG = '{"variant":"diagonalizable","eigs":%s,"kernel_dim":%%s}' % GEO_HALF

    @pytest.mark.parametrize("argv", [
        ("decide", "kadison", "--d", '{"streams":[1]}'),
        ("decide", "kadison", "--d", _ORDERED % ('{"stream":%s,"weight":1.5}' % _GEO)),
        ("decide", "kadison", "--d", _ORDERED % ('{"stream":%s,"weight":true}' % _GEO)),
        ("decide", "kadison", "--d", _CONST % "true"),
        ("decide", "three-point", "--spec", _DIAG % "1.5", "--d", GEO_HALF),
        ("decide", "three-point", "--spec", _DIAG % "true", "--d", GEO_HALF),
        ("verify", "kadison-codimension",
         "--matrix", '{"n":true,"real":true,"entries":[[1,0]]}'),
        ("verify", "kadison-codimension",
         "--matrix", '{"n":1.5,"real":true,"entries":[[1,0]]}'),
    ])
    def test_json_integer_fields_are_input_errors(self, capsys, argv):
        code = run(list(argv))
        captured = capsys.readouterr()
        assert code == 3
        assert json.loads(captured.out)["type"] == "InputError"
        assert "Traceback" not in captured.err

    _POINTS = ('{"variant":"finite_spectrum","exact":%s,'
               '"points":[["0","inf"],["1/2","inf"],["1","inf"]]}')

    @pytest.mark.parametrize("argv", [
        ("decide", "kadison", "--d", THIRD_WITH_ZEROS.replace("true", '"false"')),
        ("decide", "kadison", "--d", THIRD_WITH_ZEROS.replace('"exact"', '"ordered":"no","exact"')),
        ("decide", "three-point", "--spec", _POINTS % '"false"', "--d", THIRD_WITH_ZEROS),
        ("verify", "kadison-codimension",
         "--matrix", '{"n":1,"real":"yes","entries":[[1,0]]}'),
    ])
    def test_json_boolean_fields_are_input_errors(self, capsys, argv):
        code, body = invoke(capsys, *argv)
        assert code == 3 and body["type"] == "InputError"

    _ORDERED_GEO = _ORDERED % ('{"stream":%s,"weight":1}' % _GEO)

    @pytest.mark.parametrize("argv", [
        ("decide", "fan", "--d", GEO_HALF),
        ("decide", "kadison", "--d", _ORDERED_GEO),
        ("decide", "three-point", "--spec", _DIAG.replace(GEO_HALF, _ORDERED_GEO) % '"inf"',
         "--d", GEO_HALF),
        ("decide", "ffh-trace", "--rays", "[[0, %s]]" % _ORDERED_GEO),
    ])
    def test_ordered_and_unordered_specs_are_input_errors(self, capsys, argv):
        code, body = invoke(capsys, *argv)
        assert code == 3 and body["type"] == "InputError"

    def test_fault_inside_a_decider_keeps_its_type(self, capsys, monkeypatch):
        from diagonalis import deciders

        def broken(d):
            raise TypeError("internal fault")
        monkeypatch.setattr(deciders, "decide_kadison", broken)
        code, body = invoke(capsys, "decide", "kadison", "--d", THIRD_WITH_ZEROS)
        assert code == 3
        assert body == {"error": "internal fault", "type": "TypeError"}

    def test_pair_where_real_values_are_needed(self, capsys):
        code, body = invoke(capsys, "decide", "thompson", "--s", "[[1,2]]", "--d", "[1]")
        assert code == 3 and body["type"] == "InputError"
        code, body = invoke(capsys, "decide", "thompson", "--s", "[1]", "--d", "[[0,1]]")
        assert code == 0

    def test_complex_value_in_real_float_spec(self):
        from diagonalis import jsonio
        from diagonalis.scalars import InputError
        spec = {"field": "real", "exact": False,
                "streams": [{"kind": "finite", "values": [0.25, [0.5, 0.1]]}]}
        with pytest.raises(InputError):
            jsonio.decode_sequence(spec)
        with pytest.raises(InputError):
            jsonio.decode_operator({"variant": "diagonalizable", "eigs": spec})
        spec["field"] = "complex"
        assert jsonio.decode_sequence(spec).field == "complex"


class TestNonFiniteNumbers:
    _FLOAT_SPEC = ('{"field":"real","exact":false,"streams":'
                   '[{"kind":"finite","values":[%s]}]}')

    @pytest.mark.parametrize("argv", [
        ["decide", "schur-horn", "--lambda", "[1e400]", "--d", "[1]"],
        ["decide", "schur-horn", "--lambda", "[NaN, 1]", "--d", "[1, 0]"],
        ["decide", "horn-unitary", "--d", "[NaN]"],
        ["decide", "horn-unitary", "--d", "[[0, -Infinity]]"],
        ["decide", "kadison", "--d", _FLOAT_SPEC % "1e999"],
        ["verify", "kadison-codimension",
         "--matrix", '{"n":1,"real":true,"entries":[[Infinity,0]]}'],
    ])
    def test_is_an_input_error(self, capsys, argv):
        code, body = invoke(capsys, *argv)
        assert code == 3 and body["type"] == "InputError"

    @pytest.mark.parametrize("x", [float("inf"), float("-inf"), float("nan")])
    def test_decode_scalar_rejects(self, x):
        from diagonalis import jsonio
        from diagonalis.scalars import InputError
        with pytest.raises(InputError):
            jsonio.decode_scalar(x)
        with pytest.raises(InputError):
            jsonio.decode_scalar([0.0, x])


class TestDenseBoundary:
    _MATRIX = json.dumps({"n": 2, "real": True,
                          "entries": [[0.5, 0], [0.5, 0], [0.5, 0], [0.5, 0]]})

    @pytest.mark.parametrize("argv", [["construct", "zero-diagonal"],
                                      ["verify", "matrix", "--eigenvalues", "[]"],
                                      ["range"]])
    def test_empty_matrix(self, capsys, argv):
        code = run([*argv, "--matrix", '{"n":0,"real":true,"entries":[]}'])
        captured = capsys.readouterr()
        assert code == 3 and json.loads(captured.out)["type"] == "PreconditionError"
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("request_", ["decide", "construct"])
    def test_empty_thompson_input(self, capsys, request_):
        code = run([request_, "thompson", "--s", "[]", "--d", "[]"])
        captured = capsys.readouterr()
        assert code == 3 and json.loads(captured.out) == {
            "error": "empty input", "type": "PreconditionError"}
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("claim", [["--eigenvalues", "[1]"],
                                       ["--singular-values", "[1,0,0]"],
                                       ["--diagonal", "[0.5]"]])
    def test_claimed_list_of_wrong_length(self, capsys, claim):
        code, body = invoke(capsys, "verify", "matrix", "--matrix", self._MATRIX, *claim)
        assert code == 3 and body["type"] == "InputError"

    @pytest.mark.parametrize("grid", ["-3", "0"])
    def test_range_needs_a_positive_grid(self, capsys, grid):
        code, body = invoke(capsys, "range", "--matrix", self._MATRIX, "--grid", grid)
        assert code == 3 and body["type"] == "PreconditionError"

    def test_normal_codimension_report_prints(self, capsys):
        # its ok flag was a numpy bool, which the JSON encoder refused
        n = json.dumps({"n": 2, "real": False, "entries": [[1, 0], [0, 0], [0, 0], [0, 1]]})
        n_prime = json.dumps({"n": 2, "real": False, "entries": [[0, 1], [0, 0], [0, 0], [1, 0]]})
        code, body = invoke(capsys, "verify", "normal-codimension",
                            "--n-matrix", n, "--n-prime", n_prime)
        assert code == 0 and body["ok"] is True
        assert body["detail"]["P_ranks"] == body["detail"]["Q_ranks"] == [1, 1]


class TestLongRationals:
    def test_schur_horn_reads_rationals_past_digit_limit(self, capsys):
        tiny = "1/1" + "0" * 5000
        code, body = invoke(capsys, "decide", "schur-horn", "--exact",
                            "--lambda", json.dumps([tiny, "0"]),
                            "--d", json.dumps(["0", tiny]))
        assert code == 0 and body["verdict"] == "Yes"

    def test_printed_weak_witness_decodes_back(self, capsys):
        from diagonalis import jsonio
        from diagonalis.majorization import weak_majorize
        from diagonalis.seqspec import Geometric, TelescopingHarmonic, seq
        d = ('{"field":"real","exact":true,"streams":'
             '[{"kind":"geometric","first":"1/1000","ratio":"999/1000"}]}')
        lam = '{"field":"real","exact":true,"streams":[{"kind":"telescoping","scale":"1"}]}'
        _, body = invoke(capsys, "decide", "majorization", "--kind", "weak",
                         "--d", d, "--lambda", lam)
        direct = weak_majorize(seq(Geometric(F(1, 1000), F(999, 1000))),
                               seq(TelescopingHarmonic(F(1))))
        lhs = body["witness"]["lhs"]
        assert len(lhs) > 4300
        assert jsonio.decode_scalar(lhs, exact=True) == direct.witness[1]
