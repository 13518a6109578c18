"""Induction from unitriangular groups to general linear groups.

Degreewise induction of class functions, the parabolic product and coproduct
on the general linear side, and the cross checks (Bruhat coset reps, Mackey
decomposition, straightening against block permutations) that tie the two
sides together.  Everything runs on explicitly enumerated groups.
"""

from __future__ import annotations

import functools
import itertools

from .combinatorics import chain_order, natural_unit_interval_orders, \
    parabolic_pattern, split_composition
from .group_engine import (
    GroupTable,
    coset_rep_permutation,
    gl_table,
    pattern_group,
    permutation_matrix,
    ut_table,
)
from .class_functions import (
    ClassFunction,
    TensorFunction,
    dagger_cf,
    deflate_cf,
    induce_cf,
    inflate_cf,
    pullback_cf,
    restrict_cf,
    straighten_cf,
    unstraighten_cf,
)
from .hopf_core import (
    GradedClassFunction,
    GradedTensor,
    ScfElement,
    _report,
    specialize,
    split_tables,
    ut_coproduct,
    ut_dagger,
    ut_product,
)


def _block_predicate(n, i):
    low = range(i + 1, n + 1)
    high = range(1, i + 1)

    def pred(m):
        for r in low:
            for c in high:
                if m.entry(r, c):
                    return False
        return True

    return pred


@functools.lru_cache(maxsize=None)
def parabolic_table(n, i, q):
    """Invertible matrices with vanishing lower left block of shape (n-i) x i;
    for i in (0, n) the block is empty and this is gl_table(n, q) itself."""
    gl = gl_table(n, q)
    if i in (0, n):
        return gl
    return gl.subtable(_block_predicate(n, i), name="GL%dP%dq%d" % (n, i, q))


@functools.lru_cache(maxsize=None)
def levi_table(n, i, q):
    """Block diagonal invertible matrices, as direct sums of smaller groups;
    for i in (0, n) there is one block and this is gl_table(n, q) itself."""
    if i in (0, n):
        return gl_table(n, q)
    shift = {k: k + i for k in range(1, n - i + 1)}
    elements = []
    for a in gl_table(i, q).elements:
        for b in gl_table(n - i, q).elements:
            elements.append(a.direct_sum(b.relabel(shift)))
    return GroupTable(elements, name="GL%dL%dq%d" % (n, i, q))


def radical_table(n, i, q):
    """Unipotent matrices supported on the upper right block of shape i x (n-i)."""
    return split_tables(n, tuple(range(1, i + 1)), q)[1]


def induce_to_gl(a):
    """Degreewise induction of a graded unitriangular class function."""
    out = GradedClassFunction(a.q)
    for n, f in a.components.items():
        out = out + GradedClassFunction(a.q, {n: induce_cf(f, gl_table(n, a.q))})
    return out


def gl_product_component(fa, fb):
    q = fa.group.p
    i = len(fa.group.ground)
    j = len(fb.group.ground)
    n = i + j
    levi = levi_table(n, i, q)
    radical = radical_table(n, i, q)
    parabolic = parabolic_table(n, i, q)
    tensor = TensorFunction.outer(fa, fb)
    on_levi = unstraighten_cf(tensor, range(1, i + 1), levi)
    on_parabolic = inflate_cf(on_levi, parabolic, levi, radical)
    return induce_cf(on_parabolic, gl_table(n, q))


def gl_product(a, b):
    assert a.q == b.q
    out = GradedClassFunction(a.q)
    for i, fa in a.components.items():
        for j, fb in b.components.items():
            out = out + GradedClassFunction(
                a.q, {i + j: gl_product_component(fa, fb)}
            )
    return out


def gl_coproduct(a):
    """Parabolic deflations over all block splits, straightened and graded."""
    out = GradedTensor(a.q)
    for n, psi in a.components.items():
        for i in range(n + 1):
            levi = levi_table(n, i, a.q)
            radical = radical_table(n, i, a.q)
            on_levi = deflate_cf(psi, levi, radical)
            tensor = straighten_cf(
                on_levi, range(1, i + 1), gl_table(i, a.q), gl_table(n - i, a.q)
            )
            out = out.add_term(i, n - i, tensor)
    return out


def gl_dagger(a):
    return GradedClassFunction(
        a.q, {n: dagger_cf(f) for n, f in a.components.items()}
    )


@functools.lru_cache(maxsize=None)
def _induced_class_indicators(m, q):
    """Induction to the general linear group of each unitriangular class."""
    small = ut_table(m, q)
    big = gl_table(m, q)
    out = []
    for c in range(len(small.class_reps)):
        out.append(induce_cf(ClassFunction.class_indicator(small, c), big))
    return tuple(out)


def _induce_tensor(tensor, q):
    i = len(tensor.left_group.ground)
    j = len(tensor.right_group.ground)
    left = _induced_class_indicators(i, q)
    right = _induced_class_indicators(j, q)
    out = TensorFunction(gl_table(i, q), gl_table(j, q))
    for (c1, c2), v in tensor.data.items():
        out = out + TensorFunction.outer(left[c1], right[c2]).scale(v)
    return out


def product_hom_reports(total_degree, q):
    """Induction against the parabolic product, on the indicator basis."""
    reports = []
    by_degree = {
        n: natural_unit_interval_orders(n) for n in range(total_degree + 1)
    }
    for i in range(total_degree + 1):
        for j in range(total_degree + 1 - i):
            for pi in by_degree[i]:
                for rho in by_degree[j]:
                    xa = specialize(ScfElement.basis(pi), q)
                    xb = specialize(ScfElement.basis(rho), q)
                    lhs = induce_to_gl(ut_product(xa, xb))
                    rhs = gl_product(induce_to_gl(xa), induce_to_gl(xb))
                    instance = "pi=%s;rho=%s;q=%d" % (
                        list(pi.strict), list(rho.strict), q
                    )
                    reports.append(
                        _report("induction-product", instance, lhs, rhs)
                    )
    return reports


def coproduct_hom_reports(degree, q):
    """Induction against the parabolic coproduct, on the indicator basis."""
    reports = []
    for n in range(degree + 1):
        for pi in natural_unit_interval_orders(n):
            x = specialize(ScfElement.basis(pi), q)
            lhs = gl_coproduct(induce_to_gl(x))
            rhs = GradedTensor(q)
            for (i, j), tensor in ut_coproduct(x).components.items():
                rhs = rhs.add_term(i, j, _induce_tensor(tensor, q))
            instance = "pi=%s;n=%d;q=%d" % (list(pi.strict), n, q)
            reports.append(_report("induction-coproduct", instance, lhs, rhs))
    return reports


def dagger_invariance_reports(degree, q):
    """Induction composed with the flip equals plain induction."""
    reports = []
    for n in range(degree + 1):
        for pi in natural_unit_interval_orders(n):
            x = specialize(ScfElement.basis(pi), q)
            lhs = induce_to_gl(ut_dagger(x))
            rhs = induce_to_gl(x)
            instance = "pi=%s;n=%d;q=%d" % (list(pi.strict), n, q)
            reports.append(_report("induction-dagger", instance, lhs, rhs))
    return reports


def mackey_reports(n, i, q):
    """Restriction to a parabolic of an induced class function, against the
    sum over subset shaped double coset contributions."""
    gl = gl_table(n, q)
    ut = ut_table(n, q)
    parabolic = parabolic_table(n, i, q)
    reports = []
    for c in range(len(ut.class_reps)):
        psi = ClassFunction.class_indicator(ut, c)
        lhs = restrict_cf(induce_cf(psi, gl), parabolic)
        rhs = ClassFunction(parabolic, [0] * len(parabolic.class_reps))
        for labels in itertools.combinations(range(1, n + 1), i):
            sub_parabolic = pattern_group(parabolic_pattern(
                chain_order(range(1, n + 1)), split_composition(n, labels)
            ), q)
            w = coset_rep_permutation(n, labels)
            wmat = permutation_matrix(w, q, gl.ground)
            winv = wmat.inverse()
            conjugated = GroupTable(
                sorted(
                    (winv * u * wmat for u in sub_parabolic.elements),
                    key=lambda m: m.to_digits(),
                ),
                name="w*UP[%s]w/%d/%d" % (",".join(map(str, labels)), n, q),
            )
            pulled = pullback_cf(psi, conjugated, lambda m: wmat * m * winv)
            rhs = rhs + induce_cf(pulled, parabolic)
        instance = "n=%d;i=%d;q=%d;basis=%d" % (n, i, q, c)
        reports.append(_report("mackey", instance, lhs, rhs))
    return reports


def bruhat_reports(n, i, q):
    """The subset permutations hit every double coset exactly once."""
    gl = gl_table(n, q)
    ut = ut_table(n, q)
    parabolic = parabolic_table(n, i, q)
    ut_gens = [ut.elements[g] for g in ut.generators()]
    p_gens = [parabolic.elements[g] for g in parabolic.generators()]
    seen = [False] * gl.order
    cosets = []
    for start in range(gl.order):
        if seen[start]:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            new = []
            for k in frontier:
                m = gl.elements[k]
                for u in ut_gens:
                    idx = gl.index[u * m]
                    if idx not in orbit:
                        orbit.add(idx)
                        new.append(idx)
                for p in p_gens:
                    idx = gl.index[m * p]
                    if idx not in orbit:
                        orbit.add(idx)
                        new.append(idx)
            frontier = new
        for k in orbit:
            seen[k] = True
        cosets.append(orbit)
    rep_indices = set()
    for labels in itertools.combinations(range(1, n + 1), i):
        w = coset_rep_permutation(n, labels)
        rep_indices.add(gl.index[permutation_matrix(w, q, gl.ground)])
    hits = [len(coset & rep_indices) for coset in cosets]
    lhs = sorted(hits)
    rhs = [1] * len(cosets)
    instance = "n=%d;i=%d;q=%d;cosets=%d" % (n, i, q, len(cosets))
    return [_report("bruhat-cosets", instance, lhs, rhs)]


def levi_conjugation_reports(n, labels, q):
    """Conjugating the block Levi onto an arbitrary subset picks out the
    same pattern subgroups inside the unitriangular group."""
    labels = tuple(sorted(labels))
    i = len(labels)
    ut = ut_table(n, q)
    w = coset_rep_permutation(n, labels)
    sub_parabolic = pattern_group(parabolic_pattern(
        chain_order(range(1, n + 1)), split_composition(n, labels)
    ), q)
    reports = []
    for kind, big, target in (
        ("levi", levi_table(n, i, q), split_tables(n, labels, q)[0]),
        ("parabolic", parabolic_table(n, i, q), sub_parabolic),
    ):
        moved = {m.relabel(w) for m in big.elements}
        lhs = sorted(m.to_digits() for m in moved if m in ut.index)
        rhs = sorted(m.to_digits() for m in target.elements)
        instance = "n=%d;I=%s;q=%d;%s" % (n, list(labels), q, kind)
        reports.append(_report("levi-conjugation", instance, lhs, rhs))
    return reports


def straighten_transport_reports(n, labels, q):
    """Straightening over a subset agrees with conjugating onto the initial
    segment and straightening there."""
    labels = tuple(sorted(labels))
    i = len(labels)
    levi_sub, _ = split_tables(n, labels, q)
    levi_init, _ = split_tables(n, tuple(range(1, i + 1)), q)
    w = coset_rep_permutation(n, labels)
    wmat = permutation_matrix(w, q, tuple(range(1, n + 1)))
    winv = wmat.inverse()
    reports = []
    for c in range(len(levi_sub.class_reps)):
        psi = ClassFunction.class_indicator(levi_sub, c)
        lhs = straighten_cf(psi, labels, ut_table(i, q), ut_table(n - i, q))
        pulled = pullback_cf(psi, levi_init, lambda m: wmat * m * winv)
        rhs = straighten_cf(
            pulled, range(1, i + 1), ut_table(i, q), ut_table(n - i, q)
        )
        instance = "n=%d;I=%s;q=%d;basis=%d" % (n, list(labels), q, c)
        reports.append(_report("straighten-transport", instance, lhs, rhs))
    return reports


def straighten_induction_reports(n, i, q):
    """Straightening commutes with induction up the two block factors."""
    ul, _ = split_tables(n, tuple(range(1, i + 1)), q)
    levi = levi_table(n, i, q)
    reports = []
    for c in range(len(ul.class_reps)):
        psi = ClassFunction.class_indicator(ul, c)
        lifted = induce_cf(psi, levi)
        lhs = straighten_cf(
            lifted, range(1, i + 1), gl_table(i, q), gl_table(n - i, q)
        )
        rhs = _induce_tensor(
            straighten_cf(psi, range(1, i + 1), ut_table(i, q), ut_table(n - i, q)),
            q,
        )
        instance = "n=%d;i=%d;q=%d;basis=%d" % (n, i, q, c)
        reports.append(_report("straighten-induction", instance, lhs, rhs))
    return reports
