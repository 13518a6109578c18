"""General linear realization: parabolic structure and the induction bridge."""

import pytest

from uthopf.class_functions import ClassFunction, induce_cf
from uthopf.combinatorics import Nuio
from uthopf.gl_bridge import (
    bruhat_reports,
    coproduct_hom_reports,
    dagger_invariance_reports,
    gl_coproduct,
    gl_dagger,
    gl_product,
    induce_to_gl,
    levi_conjugation_reports,
    levi_table,
    mackey_reports,
    parabolic_table,
    product_hom_reports,
    radical_table,
    straighten_induction_reports,
    straighten_transport_reports,
)
from uthopf.group_engine import gl_order, gl_table, ut_table
from uthopf.hopf_core import ScfElement, specialize


def assert_all_ok(reports):
    assert reports
    bad = [r for r in reports if r["status"] != "ok"]
    assert not bad, bad[:3]


class TestParabolicTables:
    @pytest.mark.parametrize("n,i,q", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 2, 2)])
    def test_orders_multiply(self, n, i, q):
        para = parabolic_table(n, i, q)
        levi = levi_table(n, i, q)
        radical = radical_table(n, i, q)
        assert para.order == levi.order * radical.order
        assert levi.order == gl_order(i, q) * gl_order(n - i, q)
        assert radical.order == q ** (i * (n - i))

    def test_extreme_splits_are_the_whole_group(self):
        assert parabolic_table(2, 0, 2).order == gl_order(2, 2)
        assert parabolic_table(2, 2, 2).order == gl_order(2, 2)
        for n, q in [(2, 2), (3, 2), (2, 3)]:
            for i in (0, n):
                assert levi_table(n, i, q) is gl_table(n, q)
                assert parabolic_table(n, i, q) is gl_table(n, q)

    def test_levi_blocks(self):
        levi = levi_table(3, 1, 2)
        for m in levi.elements:
            assert m.entry(1, 2) == 0 and m.entry(1, 3) == 0
            assert m.entry(2, 1) == 0 and m.entry(3, 1) == 0


class TestInduction:
    def test_unit_and_point_products(self):
        q = 2
        x = specialize(ScfElement.basis(Nuio(1, [])), q)
        ind = induce_to_gl(x)
        doubled = gl_product(ind, ind)
        direct = induce_to_gl(
            specialize(ScfElement.basis(Nuio(1, [])) * ScfElement.basis(Nuio(1, [])), q)
        )
        assert doubled == direct

    def test_product_is_commutative_on_induced_elements(self):
        # induction products on the general linear tower commute even
        # though the unitriangular product does not
        q = 2
        pt = induce_to_gl(specialize(ScfElement.basis(Nuio(1, [])), q))
        a2 = induce_to_gl(specialize(ScfElement.basis(Nuio(2, [])), q))
        assert gl_product(pt, a2) == gl_product(a2, pt)

    def test_coproduct_counit_component(self):
        q = 2
        a2 = induce_to_gl(specialize(ScfElement.basis(Nuio(2, [])), q))
        cop = gl_coproduct(a2)
        # the (2, 0) component tensors the original with the empty group
        part = cop.components[(2, 0)]
        assert part.left_group is gl_table(2, q)
        back = ClassFunction(
            part.left_group,
            [
                sum(
                    (v for (c1, c2), v in part.data.items() if c1 == c),
                    start=0,
                )
                for c in range(len(part.left_group.class_reps))
            ],
        )
        assert back == a2.components[2]

    def test_dagger_fixes_inductions(self):
        q = 2
        for pi in (Nuio(2, []), Nuio(3, [(1, 3)])):
            ind = induce_to_gl(specialize(ScfElement.basis(pi), q))
            assert gl_dagger(ind) == induce_to_gl(
                specialize(ScfElement.basis(pi.dagger()), q)
            )


class TestReportSuites:
    @pytest.mark.parametrize("q", [2, 3])
    def test_product_homomorphism_small(self, q):
        assert_all_ok(product_hom_reports(2, q))

    @pytest.mark.parametrize("q", [2, 3])
    def test_coproduct_homomorphism_small(self, q):
        assert_all_ok(coproduct_hom_reports(2, q))

    def test_dagger_invariance_small(self):
        assert_all_ok(dagger_invariance_reports(3, 2))

    @pytest.mark.parametrize("n,i", [(2, 1), (3, 1), (3, 2)])
    def test_mackey(self, n, i):
        assert_all_ok(mackey_reports(n, i, 2))

    @pytest.mark.parametrize("n,i", [(2, 1), (3, 1), (3, 2)])
    def test_bruhat_double_cosets(self, n, i):
        assert_all_ok(bruhat_reports(n, i, 2))

    @pytest.mark.parametrize("labels", [(2,), (1, 3), (2, 3)])
    def test_levi_conjugation(self, labels):
        assert_all_ok(levi_conjugation_reports(3, labels, 2))

    @pytest.mark.parametrize("labels", [(2,), (1, 3), (2, 3)])
    def test_straighten_transport(self, labels):
        assert_all_ok(straighten_transport_reports(3, labels, 2))

    @pytest.mark.parametrize("n,i", [(2, 1), (3, 1), (3, 2)])
    def test_straighten_induction(self, n, i):
        assert_all_ok(straighten_induction_reports(n, i, 2))
