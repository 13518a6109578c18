"""End to end acceptance checks, one test per numbered criterion.

Each test asserts exact equalities (never tolerances) and, where a wall
clock budget applies, asserts it on a monotonic timer. The conftest hook
prints one CRITERION k: PASS/FAIL line per test at the end of the run.
"""

import itertools
import time
from fractions import Fraction

from uthopf.class_functions import ClassFunction, deflate_cf, induce_cf, inflate_cf, restrict_cf
from uthopf.combinatorics import (
    Nuio,
    SetComposition,
    chain_order,
    levi_pattern,
    natural_unit_interval_orders,
    radical_pattern,
)
from uthopf.gl_bridge import (
    coproduct_hom_cases,
    dagger_invariance_cases,
    product_hom_cases,
)
from uthopf.group_engine import gl_order, gl_table, pattern_group, ut_table
from uthopf.hopf_core import (
    ScfElement,
    axiom_cases,
    coproduct_oracle_cases,
    product_oracle_cases,
    verify_reports,
)

from test_combinatorics import all_partial_orders, parabolic_pattern
from test_hopf_core import ONE, T, T2, map_factors

PT = Nuio(1, [])
A2 = Nuio(2, [])
C2 = Nuio(2, [(1, 2)])
A3 = Nuio(3, [])
V3 = Nuio(3, [(1, 3)])
J3 = Nuio(3, [(1, 3), (2, 3)])
W4 = Nuio(4, [(1, 4), (2, 4)])


def assert_all_ok(reports):
    assert reports
    bad = [r for r in reports if r["status"] != "ok"]
    assert not bad, bad[:3]


def test_criterion_1_witness_coproduct_is_noncocommutative():
    start = time.monotonic()
    cop = ScfElement.basis(W4).coproduct()
    expected = {
        (Nuio(0, []), W4): ONE,
        (W4, Nuio(0, [])): ONE,
        (PT, V3): T2 + T,
        (PT, J3): T,
        (PT, A3): ONE,
        (A2, A2): T2 + ONE,
        (A2, C2): T2 + T,
        (C2, A2): T2 + T,
        (A3, PT): T,
        (J3, PT): T2,
        (V3, PT): T + ONE,
    }
    assert cop.terms == expected
    # sixteen subset terms before collection, coefficients as advertised
    assert sum(c.evaluate(1) for c in cop.terms.values()) == 16
    for want in (ONE, T, T2, T + ONE, T2 + T):
        assert want in cop.terms.values()
    assert cop.component(3, 1).swap() != cop.component(1, 3)
    assert time.monotonic() - start < 1.0


def test_criterion_2_coproduct_oracle_degree_4():
    start = time.monotonic()
    for q in (2, 3):
        reports = verify_reports(coproduct_oracle_cases(4, q))
        assert len(reports) == 1 + 1 + 2 + 5 + 14
        assert_all_ok(reports)
    assert time.monotonic() - start < 60.0


def test_criterion_3_product_oracle_total_degree_5():
    start = time.monotonic()
    reports = verify_reports(product_oracle_cases(5, 2))
    # ordered basis pairs with total degree at most five
    assert len(reports) == 1 + 2 + 5 + 14 + 42 + 132
    assert_all_ok(reports)
    assert time.monotonic() - start < 60.0


def test_criterion_4_hopf_monoid_axioms():
    start = time.monotonic()
    reports = verify_reports(axiom_cases(3, 2, samples=100, sample_size=4, seed=0))
    assert_all_ok(reports)
    families = {r["check"] for r in reports}
    assert families >= {
        "associativity",
        "coassociativity",
        "compatibility",
        "naturality-product",
        "naturality-coproduct",
    }
    assert sum(1 for r in reports if r["instance"].startswith("sample;")) == 100
    assert time.monotonic() - start < 300.0


def test_criterion_5_induction_homomorphism():
    start = time.monotonic()
    for q in (2, 3):
        assert_all_ok(verify_reports(product_hom_cases(3, q), coproduct_hom_cases(3, q)))
    # extended run at degree four
    assert_all_ok(verify_reports(product_hom_cases(4, 2), coproduct_hom_cases(4, 2)))
    assert time.monotonic() - start < 900.0


def test_criterion_6_duality():
    # symbolic identities through degree four
    for n in range(5):
        for pi in natural_unit_interval_orders(n):
            x = ScfElement.basis(pi)
            assert x.dagger().dagger() == x
            flipped = map_factors(x.coproduct().swap(), lambda e: e.dagger())
            assert x.dagger().coproduct() == flipped
    for n1 in range(5):
        for n2 in range(5 - n1):
            for p1 in natural_unit_interval_orders(n1):
                for p2 in natural_unit_interval_orders(n2):
                    x, y = ScfElement.basis(p1), ScfElement.basis(p2)
                    assert (x * y).dagger() == y.dagger() * x.dagger()
    # induction to the general linear tower collapses the duality
    for n in range(1, 5):
        assert_all_ok(verify_reports(dagger_invariance_cases(n, 2)))


def test_criterion_7_antipode():
    start = time.monotonic()
    for n in range(6):
        for pi in natural_unit_interval_orders(n):
            x = ScfElement.basis(pi)
            expect = ScfElement.unit().scale(x.counit())
            left = ScfElement.zero()
            right = ScfElement.zero()
            for (a, b), c in x.coproduct().terms.items():
                sa = ScfElement.basis(a).antipode()
                sb = ScfElement.basis(b).antipode()
                left = left + (sa * ScfElement.basis(b)).scale(c)
                right = right + (ScfElement.basis(a) * sb).scale(c)
            assert left == expect
            assert right == expect
    assert time.monotonic() - start < 5.0
    assert ScfElement.basis(A2).antipode() == -ScfElement.basis(A2) + ScfElement.basis(
        C2
    ).scale(ONE + T)


def test_criterion_8_adjointness():
    q = 2
    # Frobenius reciprocity across the unitriangular inclusion
    ut = ut_table(3, q)
    gl = gl_table(3, q)
    for c_small in range(len(ut.class_reps)):
        psi = ClassFunction.class_indicator(ut, c_small)
        up = induce_cf(psi, gl)
        for c_big in range(len(gl.class_reps)):
            phi = ClassFunction.class_indicator(gl, c_big)
            assert up.inner(phi) == psi.inner(restrict_cf(phi, ut))
    # inflation against deflation across the initial two block parabolic
    chain = chain_order((1, 2, 3, 4))
    split = SetComposition([(1, 2), (3, 4)])
    para = pattern_group(parabolic_pattern(chain, split), q)
    levi = pattern_group(levi_pattern(chain, split), q)
    radical = pattern_group(radical_pattern(chain, split), q)
    for c1 in range(len(levi.class_reps)):
        psi = ClassFunction.class_indicator(levi, c1)
        up = inflate_cf(psi, para, levi, radical)
        for c2 in range(len(para.class_reps)):
            phi = ClassFunction.class_indicator(para, c2)
            assert up.inner(phi) == psi.inner(deflate_cf(phi, levi, radical))


def test_criterion_9_counts_and_orders():
    assert [len(natural_unit_interval_orders(n)) for n in range(8)] == [
        1, 1, 2, 5, 14, 42, 132, 429,
    ]
    for n in range(5):
        for order in all_partial_orders(range(1, n + 1)):
            for q in (2, 3):
                got = pattern_group(order, q).order
                assert got == q ** len(order.strict_pairs)
    for n, q in [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
        formula = 1
        for i in range(n):
            formula *= q ** n - q ** i
        assert gl_order(n, q) == formula
        assert gl_table(n, q).order == formula


def test_criterion_10_specialize_is_a_hopf_homomorphism():
    reports = verify_reports(product_oracle_cases(4, 2))
    assert len(reports) == 1 + 2 + 5 + 14 + 42
    assert_all_ok(reports)
    reports = verify_reports(coproduct_oracle_cases(4, 2))
    assert_all_ok(reports)
