"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import math
import random
from fractions import Fraction

from heckedual.dualdata import (
    decompose_quotient,
    epsilon_of,
    langlands_dual_data,
)
from heckedual.lattice import (
    GroupAlgebraElement,
    Laurent,
    dot,
    mat_apply,
    mat_inverse_unimodular,
    vec_add,
    vec_sub,
)
from heckedual.rootdatum import (
    BUILTINS,
    TRIVIAL,
    datum_isomorphic,
    dual_datum,
    positive_root_sum,
    positive_roots,
    weyl_group,
)
from heckedual.rfunc import (
    DualRepresentation,
    QuadExt,
    contragredient_rep,
    epsilon_twist,
    local_rfactor,
    make_parameter,
    partial_rfunction,
    primes_below,
    split_by_sqrt,
    sqrt_of,
    tensor_with_projection,
)
from heckedual.satake import (
    compare_rank1_oracle,
    dot_act_poly,
    lift_exponent,
    satake_image_extended,
    structure_polynomials,
)

from conftest import enumerate_dominant, simple_reflection_x, weyl_matrices


def report(number: int, title: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:2d} [{status}] {title}"
    if detail and not ok:
        line += f" ({detail})"
    print(line)
    assert ok, f"criterion {number}: {title}: {detail}"


def test_criterion_01_duality_involution():
    ok = all(dual_datum(dual_datum(d)) == d for d in BUILTINS.values())
    ok = ok and dual_datum(BUILTINS["SL2"]) == BUILTINS["PGL2"]
    ok = ok and dual_datum(BUILTINS["SL2"]).simple_roots == ((1,),)
    ok = ok and dual_datum(BUILTINS["SL2"]).simple_coroots == ((2,),)
    report(1, "duality is an involution; dual(SL2) = PGL2 exactly", ok)


def test_criterion_02_extended_datum_axioms():
    failures = []
    for name, d in BUILTINS.items():
        dd = langlands_dual_data(d)
        ext = dd.ext
        for i, alphavee in enumerate(ext.simple_coroots):
            if dot(dd.r, alphavee) != 1:
                failures.append(f"{name}: dot(r, coroot {i}) != 1")
            reflected = mat_apply(simple_reflection_x(ext, i), dd.r)
            if reflected != vec_sub(dd.r, ext.simple_roots[i]):
                failures.append(f"{name}: reflection {i} of r is wrong")
        if dot(dd.r, dd.i) != 1:
            failures.append(f"{name}: dot(r, i) != 1")
        if dot(dd.j, dd.i) != 2:
            failures.append(f"{name}: dot(j, i) != 2")
        for w in weyl_group(ext):
            if mat_apply(weyl_matrices(ext, w)[0], dd.j) != dd.j:
                failures.append(f"{name}: j moved by {w}")
    report(2, "extended datum axioms on all builtins", not failures, "; ".join(failures))


def test_criterion_03_gl2_identification():
    dd = langlands_dual_data(BUILTINS["PGL2"])
    iso = datum_isomorphic(dd.ext, BUILTINS["GL2"])
    ok = iso is not None
    detail = "no isomorphism found"
    if ok:
        inv = mat_inverse_unimodular(iso)
        r_image = mat_apply(inv, dd.r)
        j_image = mat_apply(inv, dd.j)
        ok = r_image == (1, 0) and j_image == (1, 1)
        detail = f"r -> {r_image}, j -> {j_image}"
    report(3, "extension of PGL2 identifies with GL2, r -> (1,0), j -> (1,1)", ok, detail)


def test_criterion_04_epsilon_orders():
    expected = {"PGL2": 2, "GL2": 2, "SO5": 2, "SL2": 1, "GL3": 1, "Sp4": 1}
    failures = []
    for name, want in expected.items():
        order, _ = epsilon_of(BUILTINS[name])
        if order != want:
            failures.append(f"{name}: order {order} != {want}")
    for name, d in BUILTINS.items():
        _, t = epsilon_of(d)
        _, coroots = positive_roots(d)
        for betavee in coroots:
            if dot(t, betavee) % 2:
                failures.append(f"{name}: dot(t, {betavee}) odd")
    report(4, "central sign orders and centrality on all builtins",
           not failures, "; ".join(failures))


def test_criterion_05_quotient_decomposition():
    failures = []
    for name, d in BUILTINS.items():
        dd = langlands_dual_data(d)
        q = decompose_quotient(dd)
        if q.cokernel_invariants != (2,):
            failures.append(f"{name}: invariants {q.cokernel_invariants}")
        if q.kernel.gm_component != -1:
            failures.append(f"{name}: kernel sign {q.kernel.gm_component}")
        if q.kernel.epsilon_order != dd.epsilon_order:
            failures.append(f"{name}: kernel epsilon order mismatch")
        if q.kernel.epsilon_parity != tuple(x % 2 for x in dd.t[:-1]):
            failures.append(f"{name}: kernel epsilon parity mismatch")
    report(5, "two-fold quotient: cokernel Z/2 and kernel (-1, epsilon)",
           not failures, "; ".join(failures))


def test_criterion_06_sign_on_the_spherical_side():
    failures = []
    for name, d in BUILTINS.items():
        dd = langlands_dual_data(d)
        for lam in enumerate_dominant(d, 4):
            extended = satake_image_extended(dd, lam)
            for v, _ in extended.items():
                if not isinstance(v[dd.delta_index], int):
                    failures.append(f"{name}: non-integer delta exponent at {lam}")
    t = positive_root_sum(BUILTINS["PGL2"])
    mu = (1,)
    if dot(t, mu) % 2 != 1:
        failures.append("PGL2: dot(t, mu) is even")
    report(6, "integer delta exponents everywhere, while dot(t, mu) is odd for PGL2",
           not failures, "; ".join(failures))


def test_criterion_07_sign_on_the_parameter_side():
    dd = langlands_dual_data(BUILTINS["PGL2"])
    root = sqrt_of(Fraction(2))
    rng = random.Random(20260810)
    failures = 0
    for _ in range(100):
        a = QuadExt(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                    Fraction(2))
        if not a:
            continue
        x = make_parameter(dd, 2, (a,))
        if split_by_sqrt(x, -root) != epsilon_twist(split_by_sqrt(x, root)):
            failures += 1
    report(7, "split by -sqrt(q) equals the parity twist of split by sqrt(q), "
              "100 randomized parameters over Q(sqrt(2))",
           failures == 0, f"{failures} mismatches")


def test_criterion_08_dot_linear_intertwining():
    rng = random.Random(8)
    failures = []
    for name in ("PGL2", "GL2", "GL3", "Sp4"):
        d = BUILTINS[name]
        dd = langlands_dual_data(d)
        monomials = [tuple(rng.randint(-4, 4) for _ in range(d.rank)) for _ in range(50)]
        for w_ext, w_base in zip(weyl_group(dd.ext), weyl_group(d)):
            assert w_ext == w_base
            _, mat_y = weyl_matrices(dd.ext, w_ext)
            for y in monomials:
                lifted = GroupAlgebraElement.monomial(lift_exponent(y, 0))
                upstairs = lifted.apply_map(mat_y).specialize_delta(dd.delta_index)
                downstairs = dot_act_poly(d, w_base, GroupAlgebraElement.monomial(y))
                if upstairs != downstairs:
                    failures.append(f"{name}: w = {w_base}, y = {y}")
    report(8, "lifted linear action specializes to the dot action "
              "(PGL2, GL2, GL3, Sp4; 50 monomials per element)",
           not failures, "; ".join(failures[:3]))


def test_criterion_09_satake_algebra():
    failures = []
    for name, d in BUILTINS.items():
        dd = langlands_dual_data(d)
        t = positive_root_sum(d)
        doms = enumerate_dominant(d, 3)
        for lam in doms:
            for mu in doms:
                expansion = structure_polynomials(dd, lam, mu)
                top = vec_add(lam, mu)
                if expansion.get(top) != Laurent.one():
                    failures.append(f"{name}: top coefficient at {lam}+{mu}")
                for nu, coeff in expansion.items():
                    exponent = dot(t, vec_sub(top, nu))
                    if exponent < 0 or exponent % 2:
                        failures.append(f"{name}: bad exponent {exponent} at {nu}")
                    elif coeff.shift(exponent).min_exp() < 0:
                        failures.append(f"{name}: rescaled coefficient at {nu} "
                                        f"leaves Z[q]")
    report(9, "unitriangular expansions with zero remainder and rescaled "
              "polynomiality, all builtins, heights <= 3",
           not failures, "; ".join(failures[:3]))


def test_criterion_10_rank1_oracle():
    failures = []
    for q0 in (2, 3):
        rep = compare_rank1_oracle(q0, 4)
        failures.extend(f"q={q0}: {e}" for e in rep.failures)
        base = [e for e in rep.entries if (e.m, e.n, e.d) == (1, 1, 0)]
        if not base or base[0].tree_count != q0 + 1 or base[0].algebra_value != q0 + 1:
            failures.append(f"q={q0}: e_1 * e_1 does not reproduce q+1 at distance 0")
    report(10, "rank-one tree oracle: zero failures for q in {2, 3}, height 4",
           not failures, "; ".join(str(f) for f in failures[:3]))


def test_criterion_11_rfactors():
    failures = []
    dd0 = langlands_dual_data(TRIVIAL)
    x0 = make_parameter(dd0, 7, ())
    factor = local_rfactor(x0, DualRepresentation.trivial(dd0))
    s = 1.5
    if not math.isclose(factor.evaluate(s), 1.0 / (1.0 - 7.0 ** -s)):
        failures.append("trivial-representation local factor")
    rng = random.Random(11)
    dd = langlands_dual_data(BUILTINS["GL2"])
    for _ in range(20):
        q = rng.choice((2, 3, 5))
        x = make_parameter(dd, q, (Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                                   Fraction(rng.randint(1, 9), rng.randint(1, 9))))
        seeds = [tuple(rng.randint(-2, 2) for _ in range(3))
                 for _ in range(rng.randint(1, 3))]
        tau = DualRepresentation.from_orbits(dd, seeds)
        lhs = sorted(local_rfactor(x, tensor_with_projection(tau)).inverse_roots)
        rhs = sorted(c * q for c in local_rfactor(x, tau).inverse_roots)
        if lhs != rhs:
            failures.append(f"shift identity at q={q}")
    places = tuple((Fraction(p), make_parameter(dd0, p, ())) for p in primes_below(100))
    value = partial_rfunction(places, DualRepresentation.trivial(dd0), 2.0)
    if abs(value - math.pi ** 2 / 6) >= 0.01:
        failures.append(f"partial zeta(2) = {value}")
    report(11, "local factors: trivial rep, 20 random shift identities, "
               "partial product matches zeta(2) within 0.01",
           not failures, "; ".join(failures))


def test_criterion_12_contragredient_involution():
    rng = random.Random(12)
    failures = 0
    for name in ("GL2", "Sp4"):
        dd = langlands_dual_data(BUILTINS[name])
        for _ in range(25):
            seeds = [tuple(rng.randint(-2, 2) for _ in range(dd.ext.rank))
                     for _ in range(rng.randint(1, 3))]
            tau = DualRepresentation.from_orbits(dd, seeds)
            twice = contragredient_rep(dd, contragredient_rep(dd, tau))
            if twice != tau or twice.dimension != tau.dimension:
                failures += 1
    report(12, "contragredient is an involution on 50 random stable multisets "
               "(GL2 and Sp4)", failures == 0, f"{failures} mismatches")
