"""Tests for the extended datum, rho-type weights and the central sign."""

import json

import pytest

from heckedual import dualdata, rootdatum
from heckedual.cli import main
from heckedual.dualdata import (
    KernelElement,
    decompose_quotient,
    epsilon_of,
    extend_datum,
    langlands_dual_data,
    solve_rho_weights,
)
from heckedual.errors import ValidationError
from heckedual.lattice import dot, mat_apply, mat_inverse_unimodular, solve_rational, vec_sub
from heckedual.rfunc import DualRepresentation
from heckedual.rootdatum import (
    BUILTINS,
    TRIVIAL,
    datum_isomorphic,
    simple_reflection_x,
    weyl_group,
)


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
            e = extend_datum(d)
            assert e.base == d
            assert e.ext.rank == d.rank + 1
            assert e.delta_index == d.rank
            assert e.r == (0,) * d.rank + (1,)

    def test_pgl2_extension_vectors(self):
        e = extend_datum(BUILTINS["PGL2"])
        assert e.ext.simple_roots == ((1, 0),)
        assert e.ext.simple_coroots == ((2, 1),)

    def test_sl2_extension_pairing(self):
        e = extend_datum(BUILTINS["SL2"])
        assert e.ext.simple_roots == ((2, 0),)
        assert e.ext.simple_coroots == ((1, 1),)
        assert dot(e.r, e.ext.simple_coroots[0]) == 1

    def test_r_is_rho_weight_of_extension(self):
        for d in BUILTINS.values():
            e = extend_datum(d)
            solution = solve_rho_weights(e.ext)
            assert solution is not None
            particular, kernel = solution
            # r is in the solution set: r - particular solves the homogeneous system
            diff = vec_sub(e.r, particular)
            coords = solve_rational(kernel, diff) if kernel else None
            if kernel:
                assert coords is not None
                assert all(c.denominator == 1 for c in coords)
            else:
                assert diff == (0,) * e.ext.rank

    def test_reflections_shift_r(self):
        for d in BUILTINS.values():
            e = extend_datum(d)
            for i, alpha in enumerate(e.ext.simple_roots):
                image = mat_apply(simple_reflection_x(e.ext, i), e.r)
                assert image == vec_sub(e.r, alpha)

    def test_extended_pgl2_is_gl2(self):
        iso = datum_isomorphic(extend_datum(BUILTINS["PGL2"]).ext, BUILTINS["GL2"])
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
                assert mat_apply(w.mat_x, dd.j) == dd.j

    def test_gl2_identification_transports_r_and_j(self):
        dd = langlands_dual_data(BUILTINS["PGL2"])
        iso = datum_isomorphic(dd.ext, BUILTINS["GL2"])
        assert iso is not None
        inv = mat_inverse_unimodular(iso)
        assert mat_apply(inv, dd.r) == (1, 0)
        assert mat_apply(inv, dd.j) == (1, 1)

    def test_trivial_datum(self):
        dd = langlands_dual_data(TRIVIAL)
        assert dd.j == (2,)
        assert dd.i == (1,)
        assert dd.epsilon_order == 1

    def test_moved_j_is_a_tripwire(self, monkeypatch):
        # t = 0 instead of alpha for PGL2: j = 2r pairs to 2 with alphavee~
        monkeypatch.setattr(dualdata, "epsilon_of", lambda d: (1, (0,)))
        with pytest.raises(RuntimeError, match="j moved by simple reflection s_0"):
            langlands_dual_data.__wrapped__(BUILTINS["PGL2"])


class TestNoWeylEnumeration:
    """Invariance and stability are checked on the simple reflections; the
    Weyl group is enumerated only where its elements are the output."""

    @pytest.fixture
    def enumerations(self, monkeypatch):
        calls = []
        cached = rootdatum._weyl_group_cached

        def spy(d, cap):
            calls.append((d.name, cap))
            return cached(d, cap)

        monkeypatch.setattr(rootdatum, "_weyl_group_cached", spy)
        return calls

    def test_dual_data(self, enumerations):
        for d in list(BUILTINS.values()) + [TRIVIAL]:
            assert langlands_dual_data.__wrapped__(d) == langlands_dual_data(d)
        assert enumerations == []

    def test_stability(self, enumerations):
        dd = langlands_dual_data(BUILTINS["GL3"])
        weights = DualRepresentation.from_orbits(dd, [(1, 0, 0, 0)]).weights
        assert enumerations == [("GL3~", rootdatum.DEFAULT_WEYL_CAP)]
        enumerations.clear()
        assert DualRepresentation(dd, weights).dimension == 3
        with pytest.raises(ValidationError, match="^weight multiset is not Weyl stable$"):
            DualRepresentation(dd, weights[:2])
        assert enumerations == []

    def test_weyl_command_enumerates_once(self, enumerations, capsys):
        assert main(["--max-weyl", "6", "--format", "json", "weyl", "GL3"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert (result["order"], result["longest_length"]) == (6, 3)
        assert enumerations == [("GL3", 6)]


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

    def test_sl2_kernel_is_minus_one_trivial(self):
        q = decompose_quotient(langlands_dual_data(BUILTINS["SL2"]))
        assert q.kernel == KernelElement(-1, 1, (0,))

    def test_gl2_kernel_nontrivial(self):
        q = decompose_quotient(langlands_dual_data(BUILTINS["GL2"]))
        assert q.kernel.epsilon_order == 2
        assert q.kernel.epsilon_value((1, 0)) == -1
        assert q.kernel.epsilon_value((1, 1)) == 1
