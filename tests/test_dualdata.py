"""Tests for the extended datum, rho-type weights and the central sign."""

import json

import pytest

from heckedual import dualdata, rootdatum
from heckedual.cli import main
from heckedual.dualdata import (
    KernelElement,
    LanglandsDualData,
    decompose_quotient,
    epsilon_of,
    langlands_dual_data,
    solve_rho_weights,
)
from heckedual.errors import ValidationError
from heckedual.lattice import dot, mat_apply, mat_inverse_unimodular, solve_integer_linear, vec_sub
from heckedual.rfunc import DualRepresentation
from heckedual.rootdatum import (
    BUILTINS,
    TRIVIAL,
    RootDatum,
    datum_isomorphic,
    weyl_group,
)

from conftest import simple_reflection_x, weyl_matrices


class TestRhoWeights:
    def test_pgl2_has_none(self):
        assert solve_rho_weights(BUILTINS["PGL2"]) is None

    def test_gl2(self):
        solution = solve_rho_weights(BUILTINS["GL2"])
        assert solution is not None
        particular, kernel = solution
        assert dot(particular, (1, -1)) == 1
        assert len(kernel) == 1
        k = kernel[0]
        assert k[0] == k[1] != 0
        # (1, 0) is among the solutions
        shift = vec_sub((1, 0), particular)
        assert shift[0] == shift[1]
        assert k[0] != 0 and shift[0] % k[0] == 0

    def test_sl2(self):
        solution = solve_rho_weights(BUILTINS["SL2"])
        assert solution == ((1,), ())

    def test_solutions_differ_by_central_characters(self):
        for d in BUILTINS.values():
            solution = solve_rho_weights(d)
            if solution is None:
                continue
            _, kernel = solution
            for k in kernel:
                for alphavee in d.simple_coroots:
                    assert dot(k, alphavee) == 0


class TestExtendDatum:
    def test_shape(self):
        for d in BUILTINS.values():
            e = langlands_dual_data(d)
            assert e.base == d
            assert e.ext.rank == d.rank + 1
            assert e.delta_index == d.rank
            assert e.r == (0,) * d.rank + (1,)

    def test_pgl2_extension_vectors(self):
        e = langlands_dual_data(BUILTINS["PGL2"])
        assert e.ext.simple_roots == ((1, 0),)
        assert e.ext.simple_coroots == ((2, 1),)

    def test_sl2_extension_pairing(self):
        e = langlands_dual_data(BUILTINS["SL2"])
        assert e.ext.simple_roots == ((2, 0),)
        assert e.ext.simple_coroots == ((1, 1),)
        assert dot(e.r, e.ext.simple_coroots[0]) == 1

    def test_r_is_rho_weight_of_extension(self):
        for d in BUILTINS.values():
            e = langlands_dual_data(d)
            solution = solve_rho_weights(e.ext)
            assert solution is not None
            particular, kernel = solution
            # r is in the solution set: r - particular solves the homogeneous system
            diff = vec_sub(e.r, particular)
            if kernel:
                assert solve_integer_linear(tuple(zip(*kernel)), diff) is not None
            else:
                assert diff == (0,) * e.ext.rank

    def test_reflections_shift_r(self):
        for d in BUILTINS.values():
            e = langlands_dual_data(d)
            for i, alpha in enumerate(e.ext.simple_roots):
                image = mat_apply(simple_reflection_x(e.ext, i), e.r)
                assert image == vec_sub(e.r, alpha)

    def test_extended_pgl2_is_gl2(self):
        iso = datum_isomorphic(langlands_dual_data(BUILTINS["PGL2"]).ext, BUILTINS["GL2"])
        assert iso is not None


class TestEpsilon:
    def test_orders(self):
        assert epsilon_of(BUILTINS["PGL2"]) == (2, (1,))
        assert epsilon_of(BUILTINS["SL2"]) == (1, (2,))
        assert epsilon_of(BUILTINS["Sp4"]) == (1, (4, 2))
        assert epsilon_of(BUILTINS["SO5"]) == (2, (3, 1))
        assert epsilon_of(BUILTINS["GL2"])[0] == 2
        assert epsilon_of(BUILTINS["GL3"])[0] == 1


class TestLanglandsDualData:
    def test_pgl2_j(self):
        dd = langlands_dual_data(BUILTINS["PGL2"])
        assert dd.j == (-1, 2)
        assert dd.t == (1, 0)
        assert dd.i == (0, 1)
        assert dd.epsilon_order == 2

    def test_identities_all_builtins(self):
        for d in BUILTINS.values():
            dd = langlands_dual_data(d)
            assert dot(dd.r, dd.i) == 1
            assert dot(dd.j, dd.i) == 2
            for w in weyl_group(dd.ext):
                assert mat_apply(weyl_matrices(dd.ext, w)[0], dd.j) == dd.j

    def test_gl2_identification_transports_r_and_j(self):
        dd = langlands_dual_data(BUILTINS["PGL2"])
        iso = datum_isomorphic(dd.ext, BUILTINS["GL2"])
        assert iso is not None
        inv = mat_inverse_unimodular(iso)
        assert mat_apply(inv, dd.r) == (1, 0)
        assert mat_apply(inv, dd.j) == (1, 1)

    def test_extension_is_named_after_the_callers_datum(self):
        sl2 = langlands_dual_data(BUILTINS["SL2"])
        mine = RootDatum(1, ((2,),), ((1,),), "mine")
        dd = langlands_dual_data(mine)
        assert dd == sl2 and dd.base.name == "mine" and dd.ext.name == "mine~"
        assert langlands_dual_data(BUILTINS["SL2"]).ext.name == "SL2~"

    def test_trivial_datum(self):
        dd = langlands_dual_data(TRIVIAL)
        assert dd.j == (2,)
        assert dd.i == (1,)
        assert dd.epsilon_order == 1

    def test_moved_j_is_a_tripwire(self, monkeypatch):
        # t = 0 instead of alpha for PGL2: j = 2r pairs to 2 with alphavee~
        monkeypatch.setattr(dualdata, "epsilon_of", lambda d: (1, (0,)))
        with pytest.raises(RuntimeError, match="j moved by simple reflection s_0"):
            dualdata._dual_data.__wrapped__(BUILTINS["PGL2"], "PGL2")


def write_gl21(tmp_path) -> str:
    """A GL21 datum file (20 simple roots, |W| = 21!); returns its path."""
    roots = [[int(c == i) - int(c == i + 1) for c in range(21)] for i in range(20)]
    path = tmp_path / "gl21.json"
    path.write_text(json.dumps({"name": "GL21", "rank": 21, "simple_roots": roots,
                                "simple_coroots": roots}))
    return str(path)


class TestNoWeylEnumeration:
    """Invariance and stability are checked on the simple reflections; the
    Weyl group is enumerated only where its elements are the output."""

    @pytest.fixture
    def enumerations(self, monkeypatch):
        calls = []
        cached = rootdatum._weyl_group_cached

        def spy(d):
            calls.append((d.name,))
            return cached(d)

        monkeypatch.setattr(rootdatum, "_weyl_group_cached", spy)
        return calls

    def test_dual_data(self, enumerations):
        for d in list(BUILTINS.values()) + [TRIVIAL]:
            assert dualdata._dual_data.__wrapped__(d, d.name) == langlands_dual_data(d)
        assert enumerations == []

    def test_stability(self, enumerations):
        dd = langlands_dual_data(BUILTINS["GL3"])
        weights = DualRepresentation.from_orbits(dd, [(1, 0, 0, 0)]).weights
        assert weights == ((0, 0, 1, -2), (0, 1, 0, -1), (1, 0, 0, 0))
        assert DualRepresentation(dd, weights).dimension == 3
        with pytest.raises(ValidationError, match="^weight multiset is not Weyl stable$"):
            DualRepresentation(dd, weights[:2])
        assert enumerations == []

    def test_dual_data_commands_count_w(self, enumerations, capsys, monkeypatch, tmp_path):
        # GL21: |W| = 21!, refused under the default cap at once
        monkeypatch.delenv("HECKEDUAL_MAX_WEYL", raising=False)
        assert main(["dualdata", write_gl21(tmp_path)]) == 3
        assert capsys.readouterr().err == (
            f"resource cap: Weyl group exceeds the cap of {rootdatum.DEFAULT_WEYL_CAP} elements\n")
        for order, argv in ((6, ["dualdata", "GL3"]), (6, ["satake", "GL3", "--coweight", "1,0,0"]),
                            (6, ["mult", "GL3", "--lhs", "1,0,0", "--rhs", "0,0,-1"]),
                            (2, ["rfactor", "PGL2", "--weights", "1,1;-1,0", "--values", "2",
                                 "--q", "3", "--s", "2"])):
            assert main(["--max-weyl", str(order)] + argv) == 0
            assert main(["--max-weyl", str(order - 1)] + argv) == 3
        assert enumerations == []

    def test_stabilizers(self, enumerations):
        for d in BUILTINS.values():
            rootdatum.stabilizer_poincare(d, (0,) * d.rank)
        assert enumerations == []

    def test_validation_once_per_datum(self, monkeypatch, capsys):
        calls = []
        validate = rootdatum.validate_datum

        def spy(d):
            calls.append(d)
            return validate(d)

        monkeypatch.setattr(rootdatum, "validate_datum", spy)
        rootdatum._facts.cache_clear()
        dualdata._dual_data.cache_clear()
        assert main(["dualdata", "GL3"]) == 0
        capsys.readouterr()
        # GL3, its extension, and the other seven builtins it is compared with
        assert len(calls) == len(set(calls)) == 9
        assert {d.name for d in calls} == {"GL3~"} | set(BUILTINS)

    def test_equal_data_hash_equal(self):
        for d in list(BUILTINS.values()) + [TRIVIAL]:
            fresh = dualdata._dual_data.__wrapped__(d, d.name)
            assert fresh == langlands_dual_data(d) and fresh is not langlands_dual_data(d)
            assert hash(fresh) == hash(langlands_dual_data(d))

    def test_weyl_command_enumerates_once(self, enumerations, capsys):
        assert main(["--max-weyl", "6", "--format", "json", "weyl", "GL3"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert (result["order"], result["longest_length"]) == (6, 3)
        assert enumerations == [("GL3",)]

    def test_weyl_command_refuses_before_enumerating(self, capsys, monkeypatch, tmp_path):
        def refuse(d):
            raise AssertionError("Weyl group enumerated")

        monkeypatch.setattr(rootdatum, "_weyl_group_cached", refuse)
        monkeypatch.delenv("HECKEDUAL_MAX_WEYL", raising=False)
        for argv, cap in ((["weyl", write_gl21(tmp_path)], rootdatum.DEFAULT_WEYL_CAP),
                          (["--max-weyl", "5", "weyl", "GL3"], 5)):
            assert main(argv) == 3
            assert capsys.readouterr() == (
                "", f"resource cap: Weyl group exceeds the cap of {cap} elements\n")

    def test_weyl_cache_is_keyed_by_datum_only(self, capsys, monkeypatch):
        monkeypatch.delenv("HECKEDUAL_MAX_WEYL", raising=False)
        rootdatum._weyl_group_cached.cache_clear()
        for cap in (["--max-weyl", "6"], ["--max-weyl", "7"], []):
            assert main(cap + ["weyl", "GL3"]) == 0
        capsys.readouterr()
        assert rootdatum._weyl_group_cached.cache_info().misses == 1


class TestQuotient:
    def test_cokernel_all_builtins(self):
        for d in BUILTINS.values():
            q = decompose_quotient(langlands_dual_data(d))
            assert q.cokernel_invariants == (2,)

    def test_kernel_element_sign(self):
        for d in BUILTINS.values():
            q = decompose_quotient(langlands_dual_data(d))
            assert q.kernel.gm_component == -1

    def test_kernel_epsilon_matches_epsilon_of(self):
        for d in BUILTINS.values():
            order, t = epsilon_of(d)
            q = decompose_quotient(langlands_dual_data(d))
            assert q.kernel.epsilon_order == order
            assert q.kernel.epsilon_parity == tuple(x % 2 for x in t)

    def test_smith_form_epsilon_is_cross_checked(self):
        for d in BUILTINS.values():
            dd = langlands_dual_data(d)
            wrong = LanglandsDualData(dd.base, dd.ext, dd.r, dd.t, dd.j, dd.i, dd.p,
                                      epsilon_order=3 - dd.epsilon_order)
            with pytest.raises(RuntimeError, match="^internal: Smith-form epsilon"):
                decompose_quotient(wrong)

    def test_sl2_kernel_is_minus_one_trivial(self):
        q = decompose_quotient(langlands_dual_data(BUILTINS["SL2"]))
        assert q.kernel == KernelElement(-1, 1, (0,))

    def test_gl2_kernel_nontrivial(self):
        q = decompose_quotient(langlands_dual_data(BUILTINS["GL2"]))
        assert q.kernel.epsilon_order == 2
