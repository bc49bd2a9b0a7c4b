"""Tests for the dot action, spherical images and the tree oracle."""

import copy
import itertools
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest

from heckedual import satake
from heckedual.dualdata import langlands_dual_data
from heckedual.errors import CapExceededError, RankMismatchError, ValidationError
from heckedual.lattice import GroupAlgebraElement, Laurent, dot, mat_apply, mat_mul, reflect
from heckedual.rootdatum import BUILTINS, weyl_group
from heckedual.satake import (
    HeckeExpansion,
    OracleEntry,
    OracleReport,
    SphericalFunction,
    UnramifiedCharacter,
    compare_rank1_oracle,
    dot_act,
    dot_act_poly,
    lift_exponent,
    satake_image,
    satake_image_extended,
    structure_polynomials,
    tree_structure_constants,
    _leading_zero_histogram,
)

from conftest import (
    enumerate_dominant,
    positive_by_closure,
    reference_image,
    weyl_by_closure,
    weyl_matrices,
)

PGL2 = BUILTINS["PGL2"]
DD_PGL2 = langlands_dual_data(PGL2)


def random_character(rng, d):
    values = tuple((Fraction(rng.randint(1, 9), rng.randint(1, 9)), rng.randint(-2, 2))
                   for _ in range(d.rank))
    return UnramifiedCharacter(d, values)


def dot_act_by_reflected_basis(d, word, chi):
    """Reference: each dot step evaluates chi at every reflected basis
    vector s e_k and multiplies the value by q^<alpha, e_k>."""
    for i in reversed(tuple(word)):
        alpha, alphavee = d.simple_roots[i], d.simple_coroots[i]
        values = []
        for k in range(d.rank):
            basis = tuple(1 if c == k else 0 for c in range(d.rank))
            c, exp = chi.value_at(reflect(basis, alpha, alphavee))
            values.append((c, exp + alpha[k]))
        chi = UnramifiedCharacter(d, tuple(values))
    return chi


@pytest.mark.parametrize("call, error, message", [
    (lambda: dot_act_poly(PGL2, (0,), GroupAlgebraElement.monomial((1, 0))),
     ValidationError, "element rank does not match the datum"),
    (lambda: dot_act_poly(PGL2, (0,), GroupAlgebraElement.monomial(())),
     ValidationError, "element rank does not match the datum"),
], ids=["dot_act_poly-rank-2", "dot_act_poly-rank-0"])
def test_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


class TestDotAction:
    def test_identity(self):
        chi = random_character(random.Random(0), PGL2)
        w_id = weyl_group(PGL2)[0]
        assert dot_act(PGL2, w_id, chi) == chi

    def test_pgl2_reflection(self):
        # the value s at the coroot goes to s^-1 q^2
        chi = UnramifiedCharacter(PGL2, ((Fraction(5, 3), 0),))
        assert chi.value_at((2,)) == (Fraction(25, 9), 0)
        refl = weyl_group(PGL2)[1]
        image = dot_act(PGL2, refl, chi)
        assert image.value_at((2,)) == (Fraction(9, 25), 2)

    def test_involution(self):
        rng = random.Random(1)
        for name in ("PGL2", "SL2", "GL2"):
            d = BUILTINS[name]
            refls = [w for w in weyl_group(d) if len(w) == 1]
            for _ in range(5):
                chi = random_character(rng, d)
                for w in refls:
                    assert dot_act(d, w, dot_act(d, w, chi)) == chi

    def test_group_action(self):
        rng = random.Random(2)
        for name in ("GL3", "Sp4"):
            d = BUILTINS[name]
            elements = weyl_group(d)
            mat_y = {w: weyl_matrices(d, w)[1] for w in elements}
            by_matrix = {m: w for w, m in mat_y.items()}
            for _ in range(10):
                w1 = rng.choice(elements)
                w2 = rng.choice(elements)
                chi = random_character(rng, d)
                lhs = dot_act(d, by_matrix[mat_mul(mat_y[w1], mat_y[w2])], chi)
                rhs = dot_act(d, w1, dot_act(d, w2, chi))
                assert lhs == rhs

    def test_matches_the_reflected_basis_reference(self):
        rng = random.Random(4)
        data = list(BUILTINS.values()) + [langlands_dual_data(d).ext for d in BUILTINS.values()]
        for d in data:
            words = weyl_group(d)
            for n in range(20):
                chi = random_character(rng, d)
                if n % 4 == 0:  # int values are read as Fractions on both sides
                    chi = UnramifiedCharacter(d, tuple((rng.randint(1, 9), k) for _, k in chi.values))
                elif n % 4 == 1:
                    chi = UnramifiedCharacter(d, tuple((Fraction(rng.randint(1, 9), 4), k)
                                                       for _, k in chi.values))
                for w in words:
                    got, want = dot_act(d, w, chi).values, dot_act_by_reflected_basis(d, w, chi).values
                    assert got == want, (d.name, w)
                    assert [tuple(map(type, v)) for v in got] == [tuple(map(type, v)) for v in want]

    def test_word_independence(self):
        # s1 s2 s1 = s2 s1 s2 in the rank-two symmetric group
        d = BUILTINS["GL3"]
        rng = random.Random(3)
        for _ in range(5):
            chi = random_character(rng, d)
            assert dot_act(d, (0, 1, 0), chi) == dot_act(d, (1, 0, 1), chi)


    def test_dot_act_poly_on_cancelling_sums(self):
        # images are dot-invariant, so w.S - S cancels; so does w.(x - x)
        d = BUILTINS["GL3"]
        dd = langlands_dual_data(d)
        image = satake_image(dd, (2, 1, 0)).poly
        x = GroupAlgebraElement.monomial((1, -1, 0), Laurent.q_power(1))
        for w in weyl_group(d):
            assert (dot_act_poly(d, w, image) - image).is_zero()
            assert dot_act_poly(d, w, x - x).is_zero()
            assert dot_act_poly(d, w, x + image - x) == dot_act_poly(d, w, image)


class TestUnramifiedCharacter:
    def test_wrong_number_of_values(self):
        with pytest.raises(ValidationError, match="one value per coweight"):
            UnramifiedCharacter(PGL2, ())
        with pytest.raises(ValidationError, match="one value per coweight"):
            UnramifiedCharacter(BUILTINS["GL2"], ((Fraction(1), 0),))

    def test_value_at_refuses_a_wrong_rank(self):
        chi = UnramifiedCharacter(BUILTINS["GL2"], ((Fraction(2), 1), (Fraction(5), 0)))
        assert chi.value_at((1, 1)) == (Fraction(10), 1)
        for y in ((1,), (1, 1, 7)):
            with pytest.raises(RankMismatchError):
                chi.value_at(y)

    def test_zero_value(self):
        with pytest.raises(ValidationError, match="nonzero"):
            UnramifiedCharacter(PGL2, ((Fraction(0), 3),))
        with pytest.raises(ValidationError, match="nonzero"):
            UnramifiedCharacter(BUILTINS["GL2"], ((Fraction(2), 1), (Fraction(0), 0)))

    @pytest.mark.parametrize("c, shown", [(True, "true"), (0.5, "0.5"), (2.0, "2.0"), ("1/2", "'1/2'")])
    def test_values_are_read_by_as_fraction(self, c, shown):
        with pytest.raises(ValidationError, match=f"^expected a Fraction or an int, got {shown}$"):
            UnramifiedCharacter(PGL2, ((c, 0),))
        chi = UnramifiedCharacter(BUILTINS["GL2"], ((3, 1), (Fraction(1, 2), 0)))
        assert chi.values == ((Fraction(3), 1), (Fraction(1, 2), 0))
        assert [type(c) for c, _ in chi.values] == [Fraction, Fraction]

    def test_value_at_is_the_definition(self):
        """value_at is the loop c *= c_k ** e, k += k_k * e, equal in value,
        type, str and hash, on every builtin and extension."""
        rng = random.Random(10)
        data = list(BUILTINS.values()) + [langlands_dual_data(d).ext for d in BUILTINS.values()]
        for d in data:
            for n in range(10):
                chi = random_character(rng, d)
                if n % 2:
                    chi = UnramifiedCharacter(d, tuple((rng.choice((-1, 1)) * rng.randint(1, 9), k)
                                                       for _, k in chi.values))
                for _ in range(10):
                    y = tuple(rng.randint(-4, 4) for _ in range(d.rank))
                    c, k = Fraction(1), 0
                    for (vc, vk), e in zip(chi.values, y):
                        c *= vc ** e
                        k += vk * e
                    got = chi.value_at(y)
                    assert got == (c, k)
                    assert (type(got[0]), type(got[1])) == (Fraction, int)
                    assert (str(got), hash(got)) == (str((c, k)), hash((c, k)))


class TestLifting:
    def test_lift_and_specialize_round_trip(self):
        y = (3, -1)
        lifted = lift_exponent(y, 0)
        elem = GroupAlgebraElement.monomial(lifted)
        assert elem.specialize_delta(2) == GroupAlgebraElement.monomial(y)

    def test_pgl2_reflection_of_lift(self):
        dd = DD_PGL2
        w = weyl_group(dd.ext)[1]
        lifted = GroupAlgebraElement.monomial(lift_exponent((1,), 0))
        moved = lifted.apply_map(weyl_matrices(dd.ext, w)[1])
        assert moved == GroupAlgebraElement.monomial((-1, -1))
        spec = moved.specialize_delta(dd.delta_index)
        assert spec == GroupAlgebraElement.monomial((-1,), Laurent.q_power(-1))

    def test_intertwining_random(self):
        rng = random.Random(4)
        for name in ("PGL2", "GL2", "GL3", "Sp4"):
            d = BUILTINS[name]
            dd = langlands_dual_data(d)
            ext_elements = weyl_group(dd.ext)
            base_elements = weyl_group(d)
            for w_ext, w_base in zip(ext_elements, base_elements):
                assert w_ext == w_base
                _, mat_y = weyl_matrices(dd.ext, w_ext)
                for _ in range(8):
                    y = tuple(rng.randint(-3, 3) for _ in range(d.rank))
                    lifted = GroupAlgebraElement.monomial(lift_exponent(y, 0))
                    upstairs = lifted.apply_map(mat_y).specialize_delta(dd.delta_index)
                    downstairs = dot_act_poly(d, w_base, GroupAlgebraElement.monomial(y))
                    assert upstairs == downstairs


class TestSatakeImage:
    def test_zero_coweight(self):
        for name in ("PGL2", "GL2", "Sp4"):
            dd = langlands_dual_data(BUILTINS[name])
            image = satake_image(dd, (0,) * dd.base.rank)
            assert image.poly == GroupAlgebraElement.one(dd.base.rank)

    def test_pgl2_fundamental(self):
        image = satake_image(DD_PGL2, (1,))
        expect = (GroupAlgebraElement.monomial((1,))
                  + GroupAlgebraElement.monomial((-1,), Laurent.q_power(-1)))
        assert image.poly == expect

    def test_pgl2_twice_fundamental(self):
        image = satake_image(DD_PGL2, (2,))
        expect = (GroupAlgebraElement.monomial((2,))
                  + GroupAlgebraElement.monomial((0,), Laurent({-1: 1, -2: -1}))
                  + GroupAlgebraElement.monomial((-2,), Laurent.q_power(-2)))
        assert image.poly == expect

    def test_pgl2_height_three(self):
        # hand value: e^3 + (q^-1 - q^-2) e^1 + (q^-2 - q^-3) e^-1 + q^-3 e^-3
        image = satake_image(DD_PGL2, (3,))
        expect = (GroupAlgebraElement.monomial((3,))
                  + GroupAlgebraElement.monomial((1,), Laurent({-1: 1, -2: -1}))
                  + GroupAlgebraElement.monomial((-1,), Laurent({-2: 1, -3: -1}))
                  + GroupAlgebraElement.monomial((-3,), Laurent.q_power(-3)))
        assert image.poly == expect

    def test_rejects_non_dominant(self):
        with pytest.raises(ValidationError):
            satake_image(DD_PGL2, (-1,))

    def test_dot_invariance(self):
        for name in ("PGL2", "GL2", "GL3", "Sp4", "SO5"):
            dd = langlands_dual_data(BUILTINS[name])
            for lam in enumerate_dominant(dd.base, 2):
                assert satake_image(dd, lam).is_dot_invariant()

    def test_integer_delta_exponents(self):
        for name in ("PGL2", "Sp4"):
            dd = langlands_dual_data(BUILTINS[name])
            for lam in enumerate_dominant(dd.base, 3):
                extended = satake_image_extended(dd, lam)
                for v, _ in extended.items():
                    assert isinstance(v[dd.delta_index], int)

    def test_leading_coefficient(self):
        for name in ("GL2", "SO5"):
            dd = langlands_dual_data(BUILTINS[name])
            for lam in enumerate_dominant(dd.base, 2):
                assert satake_image(dd, lam).poly.coefficient(lam) == Laurent.one()


DD_GL2 = langlands_dual_data(BUILTINS["GL2"])
# an image handed out as cached and one handed out shifted (GL2's (2, 1) is
# (1, 0) moved by the centre), with their reprs
IMAGES = [
    (DD_PGL2, (2,),
     "SphericalFunction(datum=RootDatum(rank=1, simple_roots=((1,),), simple_coroots=((2,),),"
     " name='PGL2'), dominant=GroupAlgebraElement(e[2] + (q^-1 - q^-2)))"),
    (DD_GL2, (2, 1),
     "SphericalFunction(datum=RootDatum(rank=2, simple_roots=((1, -1),), simple_coroots=((1, -1),),"
     " name='GL2'), dominant=GroupAlgebraElement(e[2,1]))"),
]


@pytest.mark.parametrize("read", [False, True], ids=["unread", "read"])
@pytest.mark.parametrize("dd, lam, text", IMAGES, ids=["cached", "shifted"])
class TestSphericalFunctionRecord:
    """The record contract of an image, as tests/test_rfunc.py::TestRecords
    pins it for the R-factor records, with its orbits filled (poly read) or
    not; a change of its class must keep all of it."""

    @staticmethod
    def record(dd, lam, read):
        image = satake_image(dd, lam)
        record = SphericalFunction(dominant=image.dominant, datum=image.datum)
        if read:
            assert record.poly == reference_image(dd, lam)
        assert ("poly" in vars(record)) == read
        return record

    def test_repr(self, dd, lam, text, read):
        assert repr(self.record(dd, lam, read)) == text

    def test_equal_with_the_hash_of_datum_and_dominant(self, dd, lam, text, read):
        image, record = satake_image(dd, lam), self.record(dd, lam, read)
        assert record is not image
        assert record == image and hash(record) == hash(image) == hash((dd.base, image.dominant))
        assert not record != image

    def test_differs_in_datum_or_dominant(self, dd, lam, text, read):
        record = self.record(dd, lam, read)
        other = BUILTINS["SL2" if dd.base.rank == 1 else "SL3"]
        assert record != SphericalFunction(other, record.dominant)
        assert record != SphericalFunction(record.datum, record.dominant.scale(2))
        assert record != record.poly

    @pytest.mark.parametrize("field", ["datum", "dominant", "poly"])
    def test_immutable(self, dd, lam, text, read, field):
        record = self.record(dd, lam, read)
        with pytest.raises(AttributeError):
            setattr(record, field, record.dominant.shift((0,) * dd.base.rank))
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert repr(record) == text
        assert record.poly == reference_image(dd, lam)

    def test_pickle_and_copy_round_trip(self, dd, lam, text, read):
        record = self.record(dd, lam, read)
        for other in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
            assert type(other) is SphericalFunction
            assert other == record and hash(other) == hash(record)
            assert repr(other) == text
            assert other.poly == reference_image(dd, lam)


PGL2_REPR = "RootDatum(rank=1, simple_roots=((1,),), simple_coroots=((2,),), name='PGL2')"
SQUARE = {(2,): Laurent.one(), (0,): Laurent({-1: 1, -2: 1})}
ENTRY = OracleEntry(1, 1, 0, 2, 3, Fraction(3), True)
ENTRY_REPR = ("OracleEntry(m=1, n=1, d=0, exponent=2, tree_count=3, algebra_value=Fraction(3, 1),"
              " rescaled_integral=True)")
# the other four records of this module: a fresh record by position (an
# expansion as the product hands it out), one by keyword, and its repr,
# captured when the records were dataclasses
SATAKE_RECORDS = [
    (lambda: UnramifiedCharacter(PGL2, ((Fraction(2, 3), 1),)),
     lambda: UnramifiedCharacter(values=[(Fraction(4, 6), 1)], datum=PGL2),
     f"UnramifiedCharacter(datum={PGL2_REPR}, values=((Fraction(2, 3), 1),))"),
    (lambda: structure_polynomials(DD_PGL2, (1,), (1,)),
     lambda: HeckeExpansion(coeffs={(0,): Laurent({-2: 1, -1: 1}), (2,): 1, (4,): 0}, datum=PGL2),
     f"HeckeExpansion(datum={PGL2_REPR}, coeffs={{(2,): Laurent(1), (0,): Laurent(q^-1 + q^-2)}})"),
    (lambda: OracleEntry(1, 1, 0, 2, 3, Fraction(3), True),
     lambda: OracleEntry(rescaled_integral=True, algebra_value=Fraction(3), tree_count=3,
                         exponent=2, d=0, n=1, m=1),
     ENTRY_REPR),
    (lambda: OracleReport(2, 1, (ENTRY,)),
     lambda: OracleReport(entries=(ENTRY,), max_height=1, q=2),
     f"OracleReport(q=2, max_height=1, entries=({ENTRY_REPR},))"),
]
SATAKE_FIELDS = {UnramifiedCharacter: ("datum", "values"), HeckeExpansion: ("datum", "coeffs"),
                 OracleEntry: ("m", "n", "d", "exponent", "tree_count", "algebra_value",
                               "rescaled_integral"),
                 OracleReport: ("q", "max_height", "entries")}


@pytest.mark.parametrize("build, by_keyword, text", SATAKE_RECORDS,
                         ids=[type(build()).__name__ for build, _, _ in SATAKE_RECORDS])
class TestSatakeRecords:
    """The record contract of satake's other records, as
    tests/test_rfunc.py::TestRecords pins it for the R-factor records.  An
    expansion compares its coefficients alone, so it has no hash, and its
    datum is checked on its own."""

    @staticmethod
    def fields(record) -> tuple:
        return tuple(getattr(record, name) for name in SATAKE_FIELDS[type(record)])

    def same(self, other, record):
        assert type(other) is type(record) and self.fields(other) == self.fields(record)
        assert other == record and not other != record
        if isinstance(record, HeckeExpansion):
            with pytest.raises(TypeError, match="unhashable type: 'HeckeExpansion'"):
                hash(other)
        else:
            assert hash(other) == hash(record) == hash(self.fields(record))

    def test_repr(self, build, by_keyword, text):
        assert repr(build()) == text

    def test_keyword_construction_is_equal_with_equal_hash(self, build, by_keyword, text):
        self.same(by_keyword(), build())

    @pytest.mark.parametrize("field", ["datum", "values", "coeffs", "m", "algebra_value", "q",
                                       "entries", "extra"])
    def test_immutable(self, build, by_keyword, text, field):
        record = build()
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert repr(record) == text

    def test_pickle_and_copy_round_trip(self, build, by_keyword, text):
        record = build()
        for other in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record),
                      copy.copy(record)):
            self.same(other, record)
            assert repr(other) == text


def test_expansions_over_different_data_are_equal():
    # equality reads the coefficients alone
    assert HeckeExpansion(BUILTINS["SL2"], SQUARE) == HeckeExpansion(PGL2, SQUARE)
    assert HeckeExpansion(PGL2, SQUARE) != HeckeExpansion(PGL2, {(2,): Laurent.one()})
    assert HeckeExpansion(PGL2, SQUARE) != SQUARE


# two rational points, each coordinate of its own primes, and two values of
# s: no x'^y is 1 for y != 0, so no denominator below vanishes
MACDONALD_POINTS = ((Fraction(5, 7), Fraction(11, 13), Fraction(17, 19)),
                    (Fraction(23, 29), Fraction(31, 37), Fraction(41, 43)))
MACDONALD_S = (Fraction(2), Fraction(3, 2))


def monomial_at(x, y):
    """x^y = prod x_j^(y_j)."""
    value = Fraction(1)
    for xj, yj in zip(x, y):
        value *= xj ** yj
    return value


class MacdonaldFormula:
    """Macdonald's formula for S(lambda) at a point x and q = s^2, t = q^-1:

        s^-<2 rho, lambda> / W_lambda(t) * sum over w in W of
        x'^(w lambda) prod over positive coroots b of (1 - t x'^-wb) / (1 - x'^-wb)

    with x'^y = x^y s^<2 rho, y> and W_lambda(t) the sum of t^l(w) over the
    w that fix lambda (Macdonald, Spherical functions on a group of p-adic
    type, 1971; Casselman, Compositio Math. 40, 1980).  W and the positive
    roots and coroots come from the closures of ``conftest``, so it shares
    no walk, no Demazure-Lusztig operator and no packing with the library.
    The product over b depends on w alone and is formed once per w; a zero
    denominator raises ZeroDivisionError."""

    def __init__(self, d, x, s):
        roots, coroots = positive_by_closure(d)
        self.two_rho = tuple(map(sum, zip((0,) * d.rank, *roots)))
        self.x, self.s, self.t = x[:d.rank], s, 1 / (s * s)
        self.group, self.images = [], {}
        for length, _, mat_y in weyl_by_closure(d):
            factor = Fraction(1)
            for b in coroots:
                z = 1 / self.x_prime(mat_apply(mat_y, b))
                factor *= (1 - self.t * z) / (1 - z)
            self.group.append((length, mat_y, factor))

    def x_prime(self, y):
        return monomial_at(self.x, y) * self.s ** dot(self.two_rho, y)

    def image(self, lam):
        total, stabilizer = Fraction(0), Fraction(0)
        for length, mat_y, factor in self.group:
            moved = mat_apply(mat_y, lam)
            total += self.x_prime(moved) * factor
            if tuple(moved) == tuple(lam):
                stabilizer += self.t ** length
        return total / stabilizer / self.s ** dot(self.two_rho, lam)

    def element(self, poly):
        """The library's element at the same point: sum c(q) x^y."""
        q = self.s * self.s
        return sum((c.evaluate(q) * monomial_at(self.x, y) for y, c in poly.items()), Fraction(0))

    def basis(self, nu):
        """S(nu) by the formula, formed once per nu."""
        if nu not in self.images:
            self.images[nu] = self.image(nu)
        return self.images[nu]

    def expansion(self, expansion):
        """An expansion in the basis at the same point: sum c^nu(q) S(nu)."""
        q = self.s * self.s
        return sum((c.evaluate(q) * self.basis(nu) for nu, c in expansion.coeffs.items()),
                   Fraction(0))


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_images_match_macdonalds_formula(name):
    # every image of height <= 3 at two points and two values of q
    d = BUILTINS[name]
    dd = langlands_dual_data(d)
    formulas = [MacdonaldFormula(d, x, s) for x in MACDONALD_POINTS for s in MACDONALD_S]
    for lam in enumerate_dominant(d, 3):
        poly = satake_image(dd, lam).poly
        for formula in formulas:
            assert formula.element(poly) == formula.image(lam), (lam, formula.x, formula.s)


def test_macdonalds_formula_sees_one_wrong_coefficient():
    # q^-1 e^0 added to Sp4's S(2, 1) changes its value at every point
    d = BUILTINS["Sp4"]
    poly = satake_image(langlands_dual_data(d), (2, 1)).poly
    wrong = poly + GroupAlgebraElement.monomial((0, 0), Laurent.q_power(-1))
    for x in MACDONALD_POINTS:
        for s in MACDONALD_S:
            formula = MacdonaldFormula(d, x, s)
            assert formula.element(poly) == formula.image((2, 1))
            assert formula.element(wrong) != formula.image((2, 1))


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_products_match_macdonalds_formula(name):
    # S(lambda) S(mu) = sum c^nu(q) S(nu) for every product of height <= 2
    # per factor, at two points and two values of q, each S by the formula:
    # no image code on either side
    d = BUILTINS[name]
    dd = langlands_dual_data(d)
    formulas = [MacdonaldFormula(d, x, s) for x in MACDONALD_POINTS for s in MACDONALD_S]
    for lam, mu in itertools.product(enumerate_dominant(d, 2), repeat=2):
        expansion = structure_polynomials(dd, lam, mu)
        for formula in formulas:
            assert formula.expansion(expansion) == formula.basis(lam) * formula.basis(mu), (
                lam, mu, formula.x, formula.s)


def test_macdonalds_formula_sees_one_wrong_structure_polynomial():
    # q^-1 added to the coefficient at (1, 1) of Sp4's S(1, 1) S(1, 0)
    # changes its value at every point
    d = BUILTINS["Sp4"]
    expansion = structure_polynomials(langlands_dual_data(d), (1, 1), (1, 0))
    wrong = dict(expansion.coeffs)
    wrong[(1, 1)] += Laurent.q_power(-1)
    wrong = HeckeExpansion(d, wrong)
    for x in MACDONALD_POINTS:
        for s in MACDONALD_S:
            formula = MacdonaldFormula(d, x, s)
            product = formula.image((1, 1)) * formula.image((1, 0))
            assert formula.expansion(expansion) == product
            assert formula.expansion(wrong) != product


class TestStructurePolynomials:
    def test_unit(self):
        dd = langlands_dual_data(BUILTINS["Sp4"])
        zero = (0, 0)
        mu = (1, 1)
        expansion = structure_polynomials(dd, zero, mu)
        assert expansion.coeffs == {mu: Laurent.one()}

    def test_pgl2_square_of_fundamental(self):
        expansion = structure_polynomials(DD_PGL2, (1,), (1,))
        assert expansion.get((2,)) == Laurent.one()
        assert expansion.get((0,)) == Laurent({-1: 1, -2: 1})
        assert len(expansion.coeffs) == 2

    def test_expansion_refuses_a_key_of_the_wrong_rank(self):
        with pytest.raises(RankMismatchError, match="pairing of vectors of ranks 1 and 2"):
            HeckeExpansion(PGL2, {(1, 2): Laurent.one()})
        # zero entries are dropped, but their keys are still read
        with pytest.raises(RankMismatchError):
            HeckeExpansion(PGL2, {(1,): Laurent.one(), (0, 0): Laurent.zero()})
        expansion = HeckeExpansion(PGL2, {(2.0,): Laurent.one(), (0,): Laurent.zero()})
        assert expansion.coeffs == {(2,): Laurent.one()}

    def test_expansion_reads_an_int_coefficient(self):
        expansion = HeckeExpansion(PGL2, {(1,): 5, (3,): 0, (2,): Fraction(4, 2)})
        assert expansion.coeffs == {(1,): Laurent.term(5), (2,): Laurent.term(2)}
        assert expansion == HeckeExpansion(PGL2, {(1,): Laurent.term(5), (2,): Laurent.term(2)})

    def test_expansion_refuses_a_boolean_coefficient(self):
        with pytest.raises(ValidationError, match="^expected an integer, got true$"):
            HeckeExpansion(PGL2, {(1,): True})

    def test_expansion_refuses_a_key_that_is_not_dominant(self):
        with pytest.raises(ValidationError, match=r"coweight \(-3,\) is not dominant"):
            HeckeExpansion(PGL2, {(-3,): Laurent.one()})
        # a zero entry's key is read too
        with pytest.raises(ValidationError, match="not dominant"):
            HeckeExpansion(PGL2, {(1,): Laurent.one(), (-1,): Laurent.zero()})

    @pytest.mark.parametrize("lam, mu, named", [
        ((-3,), (1,), (-2,)),  # the top first
        ((-1,), (3,), (-1,)),  # top (2,) is dominant: lambda next
        ((1,), (-1,), (-1,)),
    ], ids=["top", "lambda", "mu"])
    def test_refusal_names_the_top_first_and_caches_nothing(self, lam, mu, named):
        expansions, images = dict(satake._expansions), dict(satake._images)
        with pytest.raises(ValidationError, match=rf"^coweight \({named[0]},\) is not dominant$"):
            structure_polynomials(DD_PGL2, lam, mu)
        assert satake._expansions == expansions and satake._images == images

    def test_gl3_fundamentals_unitriangular(self):
        dd = langlands_dual_data(BUILTINS["GL3"])
        omega1 = (1, 0, 0)
        omega2 = (1, 1, 0)
        expansion = structure_polynomials(dd, omega1, omega2)
        assert expansion.get((2, 1, 0)) == Laurent.one()

    def test_polynomiality_after_rescale(self):
        from heckedual.lattice import vec_add, vec_sub
        from heckedual.rootdatum import positive_root_sum

        for name in ("PGL2", "SL2", "GL2", "Sp4"):
            dd = langlands_dual_data(BUILTINS[name])
            t = positive_root_sum(dd.base)
            doms = enumerate_dominant(dd.base, 2)
            for lam in doms:
                for mu in doms:
                    expansion = structure_polynomials(dd, lam, mu)
                    for nu, coeff in expansion.items():
                        exponent = dot(t, vec_sub(vec_add(lam, mu), nu))
                        assert exponent >= 0 and exponent % 2 == 0
                        assert coeff.shift(exponent).min_exp() >= 0


def breadth_first_tree_counts(m, n, q):
    """Reference: build the tree of depth m + n around u breadth first, as
    parent and depth arrays, and count the w by walking parent pointers."""
    depth = m + n
    parent = [-1]
    node_depth = [0]
    frontier = [0]
    for _ in range(depth):
        next_frontier = []
        for node in frontier:
            children = q + 1 if node == 0 else q
            for _ in range(children):
                parent.append(node)
                node_depth.append(node_depth[node] + 1)
                next_frontier.append(len(parent) - 1)
        frontier = next_frontier

    def distance(a, b):
        steps = 0
        while node_depth[a] > node_depth[b]:
            a = parent[a]
            steps += 1
        while node_depth[b] > node_depth[a]:
            b = parent[b]
            steps += 1
        while a != b:
            a = parent[a]
            b = parent[b]
            steps += 2
        return steps

    sphere_m = [idx for idx in range(len(parent)) if node_depth[idx] == m]
    counts = {}
    for d in range(abs(m - n), m + n + 1, 2):
        v = 0
        while node_depth[v] < d:
            v = next(idx for idx in range(len(parent)) if parent[idx] == v)
        counts[d] = sum(1 for w in sphere_m if distance(w, v) == n)
    return counts


def enumerated_leading_zeros(m, q):
    """Reference: enumerate the non-backtracking paths of length m from a
    vertex, as step sequences (q + 1 choices, then q), and count them by
    their number of leading zero steps; sorted (z, count) pairs."""
    steps = [range(q + 1)] + [range(q)] * (m - 1) if m else []
    zeros = Counter(next((z for z, step in enumerate(path) if step), m)
                    for path in itertools.product(*steps))
    return sorted(zeros.items())


def sphere_size(radius, q):
    return 1 if radius == 0 else (q + 1) * q ** (radius - 1)


class TestTreeOracle:
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_paths_match_breadth_first_tree(self, q):
        for m in range(9):
            for n in range(9 - m):
                assert tree_structure_constants(m, n, q) == breadth_first_tree_counts(m, n, q)

    def test_trees_past_the_old_node_cap(self):
        # the q = 4 tree of depth 10 has 1747626 vertices, of depth 11 6990506;
        # the counts are closed forms, so no tree size is refused
        counts = tree_structure_constants(5, 5, 4)
        assert counts[0] == 5 * 4 ** 4 and counts[10] == 1
        assert tree_structure_constants(11, 0, 4, depth_cap=20) == {11: 1}
        assert tree_structure_constants(0, 11, 4, depth_cap=20) == {11: 1}
        counts = tree_structure_constants(6, 5, 4, depth_cap=20)
        assert sum(c * sphere_size(d, 4) for d, c in counts.items()) == \
            sphere_size(6, 4) * sphere_size(5, 4)

    @pytest.mark.parametrize("q", range(2, 8))
    def test_closed_form_matches_enumeration(self, q):
        m = 0
        while sphere_size(m, q) <= 10 ** 5:
            assert sorted(_leading_zero_histogram(m, q)) == enumerated_leading_zeros(m, q)
            m += 1
        assert m >= 6

    @pytest.mark.parametrize("q", range(2, 6))
    def test_sphere_sizes_add_up(self, q):
        # each w in S_m(u) and v in S_n(w) is counted once at d = dist(u, v)
        for m in range(13):
            for n in range(13 - m):
                counts = tree_structure_constants(m, n, q)
                assert sum(c * sphere_size(d, q) for d, c in counts.items()) == \
                    sphere_size(m, q) * sphere_size(n, q)

    def test_depth_cap(self):
        with pytest.raises(CapExceededError, match="tree depth 13 exceeds the cap of 12"):
            tree_structure_constants(7, 6, 2)
        with pytest.raises(CapExceededError, match="tree depth 4 exceeds the cap of 3"):
            tree_structure_constants(2, 2, 2, depth_cap=3)
        assert tree_structure_constants(7, 6, 2, depth_cap=13) == \
            breadth_first_tree_counts(7, 6, 2)

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError, match="q >= 2"):
            tree_structure_constants(1, 1, 1)
        with pytest.raises(ValidationError, match="nonnegative"):
            tree_structure_constants(-1, 1, 2)

    def test_adjacent_spheres(self):
        assert tree_structure_constants(1, 1, 2) == {0: 3, 2: 1}

    def test_m1_n0(self):
        assert tree_structure_constants(1, 0, 2) == {1: 1}

    def test_radius_two_sphere(self):
        counts = tree_structure_constants(2, 2, 2)
        assert counts[0] == 6

    def test_counts_sum_to_sphere_size(self):
        # summing over v-positions weighted by sphere sizes recovers |S_m| * |S_n|
        q = 3
        m, n = 2, 2
        counts = tree_structure_constants(m, n, q)
        total = sum(counts[d] * sphere_size(d, q) for d in counts)
        assert total == sphere_size(m, q) * sphere_size(n, q)


class TestOracleComparison:
    def test_first_cell(self):
        report = compare_rank1_oracle(2, 2)
        cell = [e for e in report.entries if (e.m, e.n, e.d) == (1, 1, 0)]
        assert len(cell) == 1
        assert cell[0].exponent == 2
        assert cell[0].tree_count == 3
        assert cell[0].ok

    def test_top_stratum(self):
        report = compare_rank1_oracle(3, 3)
        for e in report.entries:
            if e.d == e.m + e.n:
                assert e.exponent == 0 and e.tree_count == 1 and e.ok

    def test_no_failures_small(self):
        for q0 in (2, 3):
            report = compare_rank1_oracle(q0, 3)
            assert report.failures == ()
            assert report.observed_coefficient_ring == "Z[q]"

    def test_planted_coefficients_are_reported(self, monkeypatch):
        real = satake.structure_polynomials

        def planted(dd, lam, mu):
            expansion = real(dd, lam, mu)
            if (lam, mu) != ((1,), (1,)):
                return expansion
            # distance 3 is not a path length from (1,) x (1,), and q^-1 at
            # distance 2 rescales by q^0 to a negative exponent
            coeffs = {**expansion.coeffs, (3,): Laurent.one(), (2,): Laurent({-1: 1})}
            return HeckeExpansion(PGL2, coeffs)

        monkeypatch.setattr(satake, "structure_polynomials", planted)
        report = compare_rank1_oracle(2, 2)
        cells = {(e.m, e.n, e.d): e for e in report.failures}
        assert set(cells) == {(1, 1, 3), (1, 1, 2)}
        assert cells[1, 1, 3].tree_count == 0 and cells[1, 1, 3].algebra_value == 1
        assert not cells[1, 1, 2].rescaled_integral and cells[1, 1, 2].algebra_value == Fraction(1, 2)
        assert report.observed_coefficient_ring == "Z[q, q^-1]"
        monkeypatch.undo()
        report = compare_rank1_oracle(2, 2)
        assert report.failures == () and report.observed_coefficient_ring == "Z[q]"

    @pytest.mark.parametrize("q0", [2, 3, 4])
    def test_no_failures_at_the_depth_cap(self, q0):
        report = compare_rank1_oracle(q0, 12)
        assert report.failures == ()
        assert len(report.entries) == sum(min(m, n) + 1 for m in range(13) for n in range(13 - m))
