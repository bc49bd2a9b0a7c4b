"""Tests for the command line interface and the JSON interchange format."""

import io
import json
import random
import sys

import pytest

from heckedual.cli import emit_datum, main, parse_datum
from heckedual.errors import ValidationError
from heckedual.rootdatum import BUILTINS, lookup_datum


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, "--format", "json", *argv)
    assert code == 0, err
    return json.loads(out)


class TestDatumDocuments:
    def test_parse_builtin_shape(self):
        doc = json.dumps(emit_datum(BUILTINS["PGL2"]))
        d = parse_datum(doc)
        assert d == BUILTINS["PGL2"]

    def test_round_trip(self):
        doc = json.dumps(emit_datum(BUILTINS["Sp4"]))
        assert json.dumps(emit_datum(parse_datum(doc))) == doc

    def test_bad_pairing_rejected(self):
        doc = json.dumps({"name": "bad", "rank": 1,
                          "simple_roots": [[1]], "simple_coroots": [[1]]})
        with pytest.raises(ValidationError):
            parse_datum(doc)

    def test_integral_entries_still_read_by_int(self):
        # a string entry is refused (TestMalformedDocuments)
        doc = json.dumps({"name": "PGL2", "rank": 1.0, "simple_roots": [[1.0]],
                          "simple_coroots": [[2.0]]})
        assert parse_datum(doc) == BUILTINS["PGL2"]

    def test_malformed_json(self):
        with pytest.raises(ValidationError):
            parse_datum(b"{nope")

    @pytest.mark.parametrize("doc, message", [
        ([1, 2], "datum document must be a JSON object"),
        ({"rank": "two"}, 'bad datum document: rank holds a string, "two"'),
        ({"rank": -1}, "negative rank -1"),
        ({"rank": 10 ** 30}, f"rank {10 ** 30} exceeds the longest tuple"),
        ({"rank": 2, "simple_roots": [[1]], "simple_coroots": [[2, 0]]},
         "simple root (1,) has length 1, expected rank 2"),
        ({"rank": 1, "simple_roots": [[2]], "simple_coroots": []},
         "1 simple roots but 0 simple coroots"),
        ({"rank": 1, "simple_roots": [[2], [1]], "simple_coroots": [[1], [2]]},
         "2 simple roots exceed ambient rank 1"),
        ({"rank": 2, "simple_roots": [[2, 0], [-1, 2]], "simple_coroots": [[1, 0], [0, 1]]},
         "Cartan entries C[0][1], C[1][0] disagree on vanishing"),
        # affine A1 (C = [[2, -2], [-2, 2]]), its roots kept independent by a third coordinate
        ({"rank": 3, "simple_roots": [[2, -2, 1], [-2, 2, 0]],
          "simple_coroots": [[1, 0, 0], [0, 1, 0]]},
         "Cartan matrix is not of finite type"),
        # JSON booleans and fractional numbers are refused, not truncated by int()
        ({"name": "X", "rank": 1.9, "simple_roots": [[2.7]], "simple_coroots": [[True]]},
         "bad datum document: expected an integer, got 1.9"),
        ({"name": "X", "rank": 1, "simple_roots": [[2.7]], "simple_coroots": [[1]]},
         "bad datum document: expected an integer, got 2.7"),
        ({"name": "X", "rank": 1, "simple_roots": [[2]], "simple_coroots": [[True]]},
         "bad datum document: expected an integer, got true"),
        ({"name": "X", "rank": True, "simple_roots": [[2]], "simple_coroots": [[1]]},
         "bad datum document: expected an integer, got true"),
        ({"name": "X", "rank": 1, "simple_roots": [[2]], "simple_coroots": [[float("inf")]]},
         "bad datum document: expected an integer, got Infinity"),
    ], ids=["non-object", "bad-field", "negative-rank", "huge-rank", "wrong-length", "count-mismatch",
            "more-roots-than-rank", "cartan-zeros", "not-finite-type", "fractional-rank",
            "fractional-entry", "boolean-entry", "boolean-rank", "infinite-entry"])
    def test_invalid_document_is_validation(self, tmp_path, capsys, doc, message):
        source = tmp_path / "datum.json"
        source.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "dual", str(source))
        assert code == 2
        assert out == ""
        assert err.startswith("validation error: ") and err.count("\n") == 1
        assert message in err


class TestCommands:
    def test_dual(self, capsys):
        result = run_json(capsys, "dual", "SL2")
        assert result["dual"]["simple_roots"] == [[1]]
        assert result["dual"]["simple_coroots"] == [[2]]

    def test_roots(self, capsys):
        result = run_json(capsys, "roots", "Sp4")
        assert result["count"] == 4

    def test_weyl(self, capsys):
        result = run_json(capsys, "weyl", "GL3")
        assert result["order"] == 6
        assert result["longest_length"] == 3

    def test_rho(self, capsys):
        result = run_json(capsys, "rho", "PGL2")
        assert result["solvable"] is False
        result = run_json(capsys, "rho", "GL2")
        assert result["solvable"] is True

    def test_extend_identifies_gl2(self, capsys):
        result = run_json(capsys, "extend", "PGL2")
        assert result["isomorphic_builtin"] == "GL2"

    def test_epsilon(self, capsys):
        result = run_json(capsys, "epsilon", "SO5")
        assert result["order"] == 2
        assert result["t"] == [3, 1]

    def test_dualdata_pgl2(self, capsys):
        result = run_json(capsys, "dualdata", "PGL2")
        assert result["epsilon_order"] == 2
        assert result["j"] == [-1, 2]
        assert result["cokernel_invariants"] == [2]
        assert result["r_transported"] == [1, 0]
        assert result["j_transported"] == [1, 1]

    def test_dual_data_keeps_the_callers_name(self, capsys, tmp_path):
        # SL2 named X equals SL2, but each call's extension is named after
        # the datum that call loaded
        source = tmp_path / "x.json"
        source.write_text(json.dumps(dict(emit_datum(BUILTINS["SL2"]), name="X")))
        assert run_json(capsys, "dualdata", str(source))["extended"]["name"] == "X~"
        result = run_json(capsys, "dualdata", "SL2")
        assert (result["datum"], result["extended"]["name"]) == ("SL2", "SL2~")

    @pytest.mark.parametrize("name", sorted(BUILTINS) + ["trivial"])
    def test_extend_and_dualdata_print_one_extension(self, capsys, tmp_path, name):
        renamed = tmp_path / "renamed.json"
        renamed.write_text(json.dumps(dict(emit_datum(lookup_datum(name)), name="X")))
        run_json(capsys, "dualdata", str(renamed))
        extended = run_json(capsys, "extend", name)["extended"]
        assert extended == run_json(capsys, "dualdata", name)["extended"]
        assert extended["name"] == f"{name}~"

    def test_satake(self, capsys):
        result = run_json(capsys, "satake", "PGL2", "--coweight", "1")
        assert result["image_str"] == "e[1] + q^-1*e[-1]"
        assert result["dot_invariant"] is True

    def test_mult(self, capsys):
        result = run_json(capsys, "mult", "PGL2", "--lhs", "1", "--rhs", "1")
        table = {tuple(nu): text for nu, _, text in result["expansion"]}
        assert table[(2,)] == "1"
        assert table[(0,)] == "q^-1 + q^-2"

    def test_oracle(self, capsys):
        result = run_json(capsys, "oracle", "--q", "2", "--max-height", "3")
        assert result["failures"] == 0
        assert result["observed_coefficient_ring"] == "Z[q]"

    def test_rfactor(self, capsys):
        result = run_json(capsys, "rfactor", "PGL2", "--weights", "1,1;-1,0",
                          "--values", "2", "--q", "3", "--s", "2.0")
        assert sorted(result["inverse_roots"]) == ["1/2", "6"]

    def test_euler_zeta(self, capsys):
        result = run_json(capsys, "euler", "--trivial", "--primes-below", "100", "--s", "2")
        assert abs(result["value"] - 1.6449) < 0.01

    def test_split(self, capsys):
        result = run_json(capsys, "split", "PGL2", "--q", "9", "--values", "2")
        assert result["delta_value"] == "1"

    def test_split_sign_difference(self, capsys):
        plus = run_json(capsys, "split", "PGL2", "--q", "9", "--values", "2")
        minus = run_json(capsys, "split", "PGL2", "--q", "9", "--values", "2",
                         "--sqrt-sign", "minus")
        assert plus["split_values"][0] == "6"
        assert minus["split_values"][0] == "-6"
        assert plus["split_values"][1] == minus["split_values"][1]


class TestTextFormat:
    """The default output format, pinned byte for byte."""

    @pytest.mark.parametrize("argv, text", [
        (("satake", "PGL2", "--coweight", "2"),
         "command: satake\ndatum: PGL2\ncoweight: [2]\nimage:\n  [[-2], [[-2, 1]]]\n"
         "  [[0], [[-2, -1], [-1, 1]]]\n  [[2], [[0, 1]]]\n"
         "image_str: e[2] + (q^-1 - q^-2) + q^-2*e[-2]\ndot_invariant: True\n"),
        (("oracle", "--q", "2", "--max-height", "1"),
         "command: oracle\nq: 2\nmax_height: 1\nentries:\n"
         "  m=0  n=0  d=0  exponent=0  tree_count=1  algebra_value=1  ok=True\n"
         "  m=0  n=1  d=1  exponent=0  tree_count=1  algebra_value=1  ok=True\n"
         "  m=1  n=0  d=1  exponent=0  tree_count=1  algebra_value=1  ok=True\n"
         "failures: 0\nobserved_coefficient_ring: Z[q]\n"),
        (("split", "PGL2", "--q", "2", "--values", "3"),
         "command: split\ndatum: PGL2\nq: 2\nsqrt:\n  a: 0\n  b: 1\n  rad: 2\n"
         "values: ['3', '2']\nsplit_values:\n  a=0  b=3  rad=2\n  1\ndelta_value: 1\n"),
        (("dual", "SL2"),
         "command: dual\ninput:\n  name: SL2\n  rank: 1\n  simple_roots:\n    [2]\n"
         "  simple_coroots:\n    [1]\ndual:\n  name: dual(SL2)\n  rank: 1\n  simple_roots:\n"
         "    [1]\n  simple_coroots:\n    [2]\n"),
        (("roots", "SL3"),
         "command: roots\ndatum: SL3\npositive_roots:\n  [-1, 2]\n  [2, -1]\n  [1, 1]\n"
         "positive_coroots:\n  [0, 1]\n  [1, 0]\n  [1, 1]\ncount: 3\n"),
        (("weyl", "SL3"),
         "command: weyl\ndatum: SL3\norder: 6\nlongest_length: 3\nwords:\n  []\n  [0]\n"
         "  [1]\n  [0, 1]\n  [1, 0]\n  [0, 1, 0]\n"),
        (("rho", "GL2"),
         "command: rho\ndatum: GL2\nsolvable: True\nparticular: [1, 0]\nkernel_basis:\n"
         "  [1, 1]\n"),
        (("extend", "PGL2"),
         "command: extend\ndatum: PGL2\nextended:\n  name: PGL2~\n  rank: 2\n"
         "  simple_roots:\n    [1, 0]\n  simple_coroots:\n    [2, 1]\nr: [0, 1]\n"
         "delta_index: 1\nisomorphic_builtin: GL2\nisomorphism:\n  [0, -1]\n  [1, 1]\n"),
        (("epsilon", "SO5"), "command: epsilon\ndatum: SO5\norder: 2\nt: [3, 1]\n"),
        (("dualdata", "PGL2"),
         "command: dualdata\ndatum: PGL2\nextended:\n  name: PGL2~\n  rank: 2\n"
         "  simple_roots:\n    [1, 0]\n  simple_coroots:\n    [2, 1]\nr: [0, 1]\nt: [1, 0]\n"
         "j: [-1, 2]\ni: [0, 1]\np: [0, 1]\nepsilon_order: 2\ncokernel_invariants: [2]\n"
         "kernel_element:\n  gm_component: -1\n  epsilon_order: 2\n  epsilon_parity: [1]\n"
         "  description: (-1, epsilon of order 2)\nisomorphic_builtin: GL2\n"
         "r_transported: [1, 0]\nj_transported: [1, 1]\n"),
        (("mult", "PGL2", "--lhs", "1", "--rhs", "1"),
         "command: mult\ndatum: PGL2\nlhs: [1]\nrhs: [1]\nexpansion:\n  [[2], [[0, 1]], '1']\n"
         "  [[0], [[-2, 1], [-1, 1]], 'q^-1 + q^-2']\n"),
        (("rfactor", "PGL2", "--weights", "1,1;-1,0", "--values", "2", "--q", "3", "--s", "2"),
         "command: rfactor\ndatum: PGL2\nq: 3\nweights:\n  [-1, 0]\n  [1, 1]\n"
         "inverse_roots: ['1/2', '6']\nsymbolic: (1 - (1/2)*u)^-1 * (1 - (6)*u)^-1\n"
         "contragredient_weights:\n  [-1, 0]\n  [1, 1]\ns: 2.0\nvalue: 3.176470588235294\n"),
        (("euler", "PGL2", "--places", "2", "--s", "2"),
         "command: euler\ndatum: PGL2\nplaces: ['2']\ns: 2.0\nvalue: 1.3333333333333333\n"),
        # --trivial wins over a positional datum, in either order
        (("euler", "PGL2", "--trivial", "--places", "2", "--s", "2"),
         "command: euler\ndatum: trivial\nplaces: ['2']\ns: 2.0\nvalue: 1.3333333333333333\n"),
        (("euler", "--trivial", "PGL2", "--places", "2", "--s", "2"),
         "command: euler\ndatum: trivial\nplaces: ['2']\ns: 2.0\nvalue: 1.3333333333333333\n"),
    ], ids=["satake", "oracle", "split", "dual", "roots", "weyl", "rho", "extend", "epsilon",
            "dualdata", "mult", "rfactor", "euler", "euler-datum-then-trivial",
            "euler-trivial-then-datum"])
    def test_text_output(self, capsys, argv, text):
        assert run_cli(capsys, *argv) == (0, text, "")


class TestDeterminismAndExitCodes:
    def test_json_is_byte_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "--format", "json", "dualdata", "Sp4")
        _, out2, _ = run_cli(capsys, "--format", "json", "dualdata", "Sp4")
        assert out1 == out2

    def test_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "nonsense")
        assert code == 1
        assert err

    def test_validation_error_unknown_datum(self, capsys):
        code, _, _ = run_cli(capsys, "roots", "E8-typo")
        assert code == 2

    def test_validation_error_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "bad", "rank": 1,
                                   "simple_roots": [[1]], "simple_coroots": [[1]]}))
        code, _, _ = run_cli(capsys, "roots", str(bad))
        assert code == 2

    @pytest.mark.parametrize("kind", ["directory", "not-utf8", "stdin-not-utf8"])
    def test_unreadable_datum_is_validation(self, tmp_path, capsys, monkeypatch, kind):
        doc = b'{"name": "\xe9", "rank": 1, "simple_roots": [[2]], "simple_coroots": [[1]]}'
        source = tmp_path / "latin1.json"
        source.write_bytes(doc)
        if kind == "directory":
            source = tmp_path
        elif kind == "stdin-not-utf8":
            # as the interpreter opens stdin in UTF-8 mode: bad bytes decode
            # to surrogates unless the datum is read as bytes
            stdin = io.TextIOWrapper(io.BytesIO(doc), encoding="utf-8", errors="surrogateescape")
            monkeypatch.setattr(sys, "stdin", stdin)
            source = "-"
        code, out, err = run_cli(capsys, "dual", str(source))
        assert code == 2
        assert out == ""
        assert err.startswith("validation error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("doc, message", [
        (b'{"rank": ' + b"9" * 5001 + b"}", "an integer literal of more than 4300 digits"),
        (b"[" * 100000, "nested too deeply"),
    ], ids=["5001-digit-rank", "100000-brackets"])
    @pytest.mark.parametrize("where", ["file", "stdin"])
    def test_malformed_document_is_validation(self, tmp_path, capsys, monkeypatch, doc, message, where):
        # past the int digit limit, and past the decoder's recursion limit
        source = tmp_path / "datum.json"
        source.write_bytes(doc)
        if where == "stdin":
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(doc), encoding="utf-8"))
            source = "-"
        code, out, err = run_cli(capsys, "roots", str(source))
        assert code == 2
        assert out == ""
        assert err.startswith("validation error: malformed JSON: ") and err.count("\n") == 1
        assert message in err

    def test_integer_literal_at_the_digit_limit_is_read(self):
        # 4300 digits, with or without a sign, still read: the root entry
        # reaches the datum's checks, which name its pairing
        for literal in ("9" * 4300, "-" + "9" * 4300):
            doc = '{"rank": 1, "simple_roots": [[' + literal + ']], "simple_coroots": [[1]]}'
            with pytest.raises(ValidationError, match="pairing <alpha_0, alphavee_0> = " + literal):
                parse_datum(doc)

    def test_file_datum_accepted(self, tmp_path, capsys):
        doc = tmp_path / "gl2.json"
        doc.write_text(json.dumps(emit_datum(BUILTINS["GL2"])))
        result = run_json(capsys, "roots", str(doc))
        assert result["count"] == 1

    def test_cap_exceeded(self, capsys):
        code, _, _ = run_cli(capsys, "satake", "PGL2", "--max-height", "2",
                             "--coweight", "5")
        assert code == 3

    def test_out_of_memory_is_a_cap(self, capsys):
        # the sieve asks for 10^18 bytes, more than any address space holds
        code, out, err = run_cli(capsys, "euler", "--trivial", "--primes-below",
                                 "1000000000000000000", "--s", "2")
        assert (code, out, err) == (3, "", "resource cap: out of memory\n")

    def test_pole_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, "euler", "--trivial", "--places", "2", "--s", "0")
        assert code == 4

    def test_true_pole_that_floats_miss_exit_code(self, capsys):
        # 49 * 7^-2 = 1 exactly, but the float denominator is 1.1e-16, not 0.0
        code, out, err = run_cli(capsys, "--format", "json", "rfactor", "PGL2",
                                 "--weights", "0,2", "--values", "1", "--q", "7", "--s", "2")
        assert code == 4
        assert out == ""
        assert "pole" in err

    @pytest.mark.parametrize("argv, ranks", [
        (("satake", "GL3", "--coweight", "1,0"), "3 and 2"),
        (("mult", "GL3", "--lhs", "1,0", "--rhs", "1,0,0"), "3 and 2"),
        # data with no simple roots: the rank is checked before any pairing
        (("satake", "TORUS", "--coweight", "1,2,3"), "2 and 3"),
        (("satake", "TORUS", "--coweight", "1"), "2 and 1"),
        (("mult", "TORUS", "--lhs", "1,2", "--rhs", "1,2,3"), "2 and 3"),
        (("mult", "TORUS", "--lhs", "1,2,3", "--rhs", "1,2"), "2 and 3"),
        (("satake", "trivial", "--coweight", "1"), "0 and 1"),
        (("mult", "trivial", "--lhs", "1", "--rhs="), "0 and 1"),
        (("mult", "trivial", "--lhs=", "--rhs", "1"), "0 and 1"),
    ], ids=["satake", "mult", "torus-satake-long", "torus-satake-short", "torus-mult-rhs",
            "torus-mult-lhs", "trivial-satake", "trivial-mult-lhs", "trivial-mult-rhs"])
    def test_wrong_rank_coweight_is_validation(self, tmp_path, capsys, argv, ranks):
        torus = tmp_path / "torus.json"
        torus.write_text(json.dumps({"name": "T2", "rank": 2,
                                     "simple_roots": [], "simple_coroots": []}))
        argv = [str(torus) if arg == "TORUS" else arg for arg in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"validation error: pairing of vectors of ranks {ranks}\n"

    @pytest.mark.parametrize("argv", [
        ("rfactor", "PGL2", "--weights", "1,1;-1,0", "--values", "2", "--q", "3", "--s", "nan"),
        ("euler", "--trivial", "--places", "2", "--s", "inf"),
    ], ids=["nan", "inf"])
    def test_non_finite_s_is_validation(self, capsys, argv):
        code, out, err = run_cli(capsys, "--format", "json", *argv)
        assert code == 2
        assert out == ""
        assert "s must be finite" in err

    @pytest.mark.parametrize("argv", [
        ("rfactor", "PGL2", "--weights", "1,1;-1,0", "--values", "2", "--q", "3", "--s=-800"),
        ("rfactor", "PGL2", "--weights", "1,1;-1,0", "--values", "2", "--q", "1e400", "--s", "2"),
    ], ids=["negative-s", "huge-q"])
    def test_float_overflow_is_numeric_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "--format", "json", *argv)
        assert code == 4
        assert out == ""
        assert "numeric error" in err

    def test_tree_depth_flag_raises_oracle_cap(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--q", "2", "--max-height", "13")
        assert code == 3
        assert "cap of 12" in err
        result = run_json(capsys, "--max-tree-depth", "13", "oracle", "--q", "2",
                          "--max-height", "13")
        assert result["failures"] == 0

    def test_oracle_q4_height_11_is_answered(self, capsys):
        result = run_json(capsys, "oracle", "--q", "4", "--max-height", "11")
        assert result["failures"] == 0

    def test_tree_depth_flag_lowers_oracle_cap(self, capsys):
        code, out, err = run_cli(capsys, "--max-tree-depth", "3", "oracle", "--q", "2",
                                 "--max-height", "4")
        assert code == 3
        assert out == ""
        assert "cap of 3" in err

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_nonpositive_tree_depth_is_usage_error(self, capsys, cap):
        code, _, err = run_cli(capsys, "--max-tree-depth", cap, "oracle", "--q", "2",
                               "--max-height", "2")
        assert code == 1
        assert "caps must be positive" in err

    def test_max_height_before_oracle_is_kept(self, capsys):
        before = run_json(capsys, "--max-height", "5", "oracle", "--q", "2")
        assert before == run_json(capsys, "oracle", "--q", "2", "--max-height", "5")
        assert before["max_height"] == 5
        assert run_json(capsys, "oracle", "--q", "2")["max_height"] == 4

    @pytest.mark.parametrize("argv", [
        ("--max-height", "0", "oracle", "--q", "2"),
        ("oracle", "--q", "2", "--max-height", "0"),
    ], ids=["before", "after"])
    def test_zero_max_height_is_usage_error_for_oracle(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "caps must be positive" in err

    def test_omega_violation_is_validation(self, capsys):
        code, _, _ = run_cli(capsys, "rfactor", "PGL2", "--weights", "0,0",
                             "--values", "2", "--q", "1")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("satake", "GL3", "--coweight", "1,0,0"),
        ("mult", "GL3", "--lhs", "1,0,0", "--rhs", "0,0,-1"),
    ])
    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_weyl_cap_on_dual_data_commands(self, capsys, monkeypatch, argv, via):
        # |W(GL3)| = 6; a cap of 5 must refuse, a cap of 6 must not change a byte
        if via == "flag":
            code, out, err = run_cli(capsys, "--max-weyl", "5", *argv)
        else:
            monkeypatch.setenv("HECKEDUAL_MAX_WEYL", "5")
            code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "cap of 5" in err
        if via == "flag":
            at_cap = run_cli(capsys, "--format", "json", "--max-weyl", "6", *argv)
        else:
            monkeypatch.setenv("HECKEDUAL_MAX_WEYL", "6")
            at_cap = run_cli(capsys, "--format", "json", *argv)
            monkeypatch.delenv("HECKEDUAL_MAX_WEYL")
        assert at_cap == run_cli(capsys, "--format", "json", *argv)
        assert at_cap[0] == 0

    @pytest.mark.parametrize("value", ["abc", ""])
    def test_non_integer_weyl_cap_env_is_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("HECKEDUAL_MAX_WEYL", value)
        code, out, err = run_cli(capsys, "weyl", "SL2")
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert repr(value) in err

    @pytest.mark.parametrize("argv", [
        ("dualdata", "GL3"),
        ("rfactor", "GL3", "--weights", "1,0,0,0", "--q", "3"),
        ("euler", "GL3", "--places", "2", "--s", "2"),
        ("split", "GL3", "--q", "9"),
    ])
    def test_weyl_cap_on_other_dual_data_commands(self, capsys, argv):
        code, _, err = run_cli(capsys, "--max-weyl", "5", *argv)
        assert code == 3
        assert "cap of 5" in err

    @pytest.mark.parametrize("argv, code, message", [
        (("satake", "GL2", "--coweight", "1,x"), 2,
         "validation error: expected a comma separated integer vector, got '1,x'"),
        (("rfactor", "PGL2", "--weights", "0,1", "--q", "abc"), 2,
         "validation error: expected a rational number, got 'abc'"),
        (("euler", "--s", "2"), 1, "usage error: euler needs a datum or --trivial"),
        (("euler", "PGL2", "--s", "2"), 1, "usage error: euler needs --places or --primes-below"),
    ], ids=["bad-coweight", "bad-q", "euler-no-datum", "euler-no-places"])
    def test_refused_arguments(self, capsys, argv, code, message):
        assert run_cli(capsys, *argv) == (code, "", message + "\n")

    def test_euler_with_weights(self, capsys):
        result = run_json(capsys, "euler", "PGL2", "--weights", "1,1;-1,0",
                          "--places", "2,3", "--s", "3")
        # values 1 on the base: inverse roots q and 1, so the local factor
        # is 1 / ((1 - q^(1-s)) (1 - q^-s)); at s = 3 that is 32/21 * 243/208
        assert result["places"] == ["2", "3"]
        assert result["value"] == pytest.approx(32 / 21 * 243 / 208, rel=1e-12)


PREFIXES = {1: "usage error: ", 2: "validation error: ", 3: "resource cap: ", 4: "numeric error: "}


def datum_calls(path: str, rank: int) -> list[list[str]]:
    """Every datum subcommand on the document at path, with fixed small
    arguments for a datum of the given rank."""
    zeros, twos = ",".join(["0"] * rank), ",".join(["2"] * rank)
    calls = [[command, path] for command in ("dual", "roots", "weyl", "rho", "extend", "epsilon",
                                             "dualdata")]
    return calls + [
        ["satake", path, "--coweight", zeros],
        ["mult", path, "--lhs", zeros, "--rhs", zeros],
        ["rfactor", path, "--weights", zeros + ",1", "--values", twos, "--q", "3", "--s", "2"],
        ["euler", path, "--places", "2", "--s", "2"],
        ["split", path, "--q", "9", "--values", twos],
    ]


def malformed_documents(rng: random.Random) -> list[tuple[str, int, str]]:
    """(builtin, its rank, document): each field of a builtin's JSON
    document dropped, retyped, nested or duplicated, and huge ints and
    floats as the rank or as a root entry, each change made on a builtin
    that rng draws."""
    retyped = ['"1"', "2.5", "true", "null", "[[1, [2]], []]"]
    huge = ["1" + "0" * 30, "-" + "9" * 4300, "1e308", "-1e400", "NaN"]
    out = []

    def emit(change):
        name = rng.choice(sorted(BUILTINS))
        values = {k: json.dumps(v) for k, v in emit_datum(BUILTINS[name]).items()}
        items = change(values)
        out.append((name, BUILTINS[name].rank, "{" + ", ".join(f'"{k}": {v}' for k, v in items) + "}"))

    def put(field, text):
        return lambda values: [(k, text if k == field else v) for k, v in values.items()]

    for field in ("name", "rank", "simple_roots", "simple_coroots"):
        emit(lambda values: [(k, v) for k, v in values.items() if k != field])
        for text in retyped:
            emit(put(field, text))
        emit(lambda values: [(k, f"[{v}]" if k == field else v) for k, v in values.items()])
        # duplicated: the same value first, and last, where it wins, the
        # same value again or a retyped one
        text = rng.choice(retyped + [None])
        emit(lambda values: [(field, values[field])] + list(values.items())
             + [(field, values[field] if text is None else text)])
    for text in huge:
        if rng.random() < 0.5:
            emit(put("rank", text))
            continue
        field = rng.choice(("simple_roots", "simple_coroots"))

        def entry(values):
            rows = json.loads(values[field])
            row = rng.choice(rows)
            row[rng.randrange(len(row))] = "HUGE"
            return put(field, json.dumps(rows).replace('"HUGE"', text))(values)
        emit(entry)
    return out


class TestMalformedDocuments:
    """Every datum subcommand on malformed datum documents, in process:
    an exit code of the contract, one stderr line with its prefix on a
    refusal and no traceback, and byte-identical JSON for a document that
    is read."""

    def test_malformed_documents_keep_the_exit_code_contract(self, tmp_path, capsys):
        read = 0
        for n, (name, rank, doc) in enumerate(malformed_documents(random.Random(61))):
            path = tmp_path / f"{n}.json"
            path.write_text(doc)
            for argv in datum_calls(str(path), rank):
                seen = (name, doc, argv)
                code, out, err = run_cli(capsys, "--format", "json", *argv)
                assert code in range(5), seen
                if code:
                    assert out == "" and err.count("\n") == 1, (seen, err)
                    assert err.startswith(PREFIXES[code]) and "Traceback" not in err, (seen, err)
                    continue
                assert err == "" and out.count("\n") == 1, seen
                assert run_cli(capsys, "--format", "json", *argv) == (0, out, ""), seen
                read += 1
        # some documents are still read: a duplicate of an equal value, a
        # retyped name
        assert read

    @pytest.mark.parametrize("field, value", [
        ("rank", '"1"'),
        ("simple_roots", '"1"'),
        ("simple_roots", '["1"]'),
        ("simple_roots", '[["1"]]'),
    ], ids=["rank", "vector-list", "vector", "entry"])
    @pytest.mark.parametrize("where", ["file", "stdin"])
    def test_string_for_a_number_or_a_vector_is_refused(self, tmp_path, capsys, monkeypatch,
                                                        field, value, where):
        # each was read as PGL2 once: a string is iterated by character,
        # and each character read by int()
        assert roots_of_pgl2_with(tmp_path, capsys, monkeypatch, field, value, where) == (
            2, "", f'validation error: bad datum document: {field} holds a string, "1"\n')

    @pytest.mark.parametrize("field, value, shown", [
        ("simple_roots", '{"1": 0}', '{"1": 0}'),
        ("simple_roots", '[{"1": 0}]', '{"1": 0}'),
        ("simple_coroots", '{"2": 0}', '{"2": 0}'),
    ], ids=["vector-list", "vector", "coroot-list"])
    @pytest.mark.parametrize("where", ["file", "stdin"])
    def test_object_for_a_vector_list_or_a_vector_is_refused(self, tmp_path, capsys, monkeypatch,
                                                             field, value, shown, where):
        # each was read as PGL2 once: an object is iterated by its keys
        assert roots_of_pgl2_with(tmp_path, capsys, monkeypatch, field, value, where) == (
            2, "", f"validation error: bad datum document: {field} holds an object, {shown}\n")


def roots_of_pgl2_with(tmp_path, capsys, monkeypatch, field, value, where):
    """``roots`` on PGL2's datum document with one field's JSON text
    replaced by value, read from a file or from stdin."""
    fields = {"name": '"PGL2"', "rank": "1", "simple_roots": "[[1]]", "simple_coroots": "[[2]]"}
    fields[field] = value
    doc = ("{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}").encode()
    source = tmp_path / "datum.json"
    source.write_bytes(doc)
    if where == "stdin":
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(doc), encoding="utf-8"))
        source = "-"
    return run_cli(capsys, "roots", str(source))
