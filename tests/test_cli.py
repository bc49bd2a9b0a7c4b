"""Tests for the command line interface and the JSON interchange format."""

import io
import json
import sys

import pytest

from heckedual.cli import emit_datum, main, parse_datum
from heckedual.errors import ValidationError
from heckedual.rootdatum import BUILTINS


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

    def test_malformed_json(self):
        with pytest.raises(ValidationError):
            parse_datum(b"{nope")

    @pytest.mark.parametrize("doc, message", [
        ([1, 2], "datum document must be a JSON object"),
        ({"rank": "two"}, "bad datum document: invalid literal"),
        ({"rank": -1}, "negative rank -1"),
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
    ], ids=["non-object", "bad-field", "negative-rank", "wrong-length", "count-mismatch",
            "more-roots-than-rank", "cartan-zeros", "not-finite-type"])
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
    ], ids=["satake", "oracle", "split"])
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

    def test_file_datum_accepted(self, tmp_path, capsys):
        doc = tmp_path / "gl2.json"
        doc.write_text(json.dumps(emit_datum(BUILTINS["GL2"])))
        result = run_json(capsys, "roots", str(doc))
        assert result["count"] == 1

    def test_cap_exceeded(self, capsys):
        code, _, _ = run_cli(capsys, "satake", "PGL2", "--max-height", "2",
                             "--coweight", "5")
        assert code == 3

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

    def test_oracle_node_cap(self, capsys):
        code, out, err = run_cli(capsys, "oracle", "--q", "4", "--max-height", "11")
        assert code == 3
        assert out == ""
        assert "tree size exceeds the node cap" in err

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
