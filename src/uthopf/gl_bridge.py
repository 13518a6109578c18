"""Induction from unitriangular groups to general linear groups.

Degreewise induction of class functions, the block Levi and radical tables,
the parabolic product and coproduct on the general linear side, and the
report suites checking that induction carries the unitriangular product,
coproduct and flip to them.  Everything runs on explicitly enumerated
groups.  The product is hopf_core.parabolic_product, the body the
unitriangular product runs too: parabolic induction is read off the
deflation counts of the block split, so no parabolic group is built.
"""

from __future__ import annotations

import functools

from .group_engine import FqMatrix, GroupTable, _gl_generators, gl_table
from .class_functions import deflate_cf, induce_cf, induce_tensor, straighten_cf
from .hopf_core import (
    GradedClassFunction,
    GradedTensor,
    ScfElement,
    _order_instances,
    _pair_instances,
    _report,
    parabolic_product,
    specialize,
    split_tables,
    ut_coproduct,
    ut_product,
)


def _levi_generators(n, i, q):
    """The generators of gl_table(i, q) on the labels 1, ..., i followed by
    those of gl_table(n - i, q) on i+1, ..., n, each in the identity of
    degree n."""
    ground = tuple(range(1, n + 1))
    return _gl_generators(q, ground, ground[:i]) + _gl_generators(q, ground, ground[i:])


@functools.lru_cache(maxsize=None)
def parabolic_table(n, i, q):
    """Invertible matrices with vanishing lower left block of shape (n-i) x i,
    kept from the elements of gl_table(n, q) by a slice of their rows; for
    i in (0, n) the block is empty and this is gl_table(n, q) itself.

    The product builds no parabolic group; this table is a reference for
    the tests, and perfbench/tracer.py wraps it by name.

    Generated by the Levi generators and one elementary radical matrix: the
    Levi conjugates diag(A, B) of I + X are I + A X B^-1, so one nonzero X
    yields every rank one X, and their products give the whole radical."""
    gl = gl_table(n, q)
    if i in (0, n):
        return gl
    corner = FqMatrix.one_off(q, gl.ground, i, i + 1, 1)
    return GroupTable(
        [m for m in gl.elements
         if not any(e for row in m.rows[i:] for e in row[:i])],
        generators=_levi_generators(n, i, q) + [corner],
        name="GL%dP%dq%d" % (n, i, q),
    )


@functools.lru_cache(maxsize=None)
def levi_table(n, i, q):
    """Block diagonal invertible matrices, blocks of sizes i and n - i, kept
    from the elements of gl_table(n, q) whose two off diagonal blocks
    vanish; for i in (0, n) there is one block and this is gl_table(n, q)
    itself."""
    gl = gl_table(n, q)
    if i in (0, n):
        return gl
    return GroupTable(
        [m for m in gl.elements
         if not any(e for row in m.rows[i:] for e in row[:i])
         and not any(e for row in m.rows[:i] for e in row[i:])],
        generators=_levi_generators(n, i, q),
        name="GL%dL%dq%d" % (n, i, q),
    )


def radical_table(n, i, q):
    """Unipotent matrices supported on the upper right block of shape i x (n-i)."""
    return split_tables(n, tuple(range(1, i + 1)), q)[1]


def induce_to_gl(a):
    """Degreewise induction of a graded unitriangular class function."""
    return GradedClassFunction(
        a.q, {n: induce_cf(f, gl_table(n, a.q)) for n, f in a.terms.items()}
    )


def gl_product(a, b):
    """Parabolic induction of each pair of components up the block splits."""
    return parabolic_product(a, b, gl_table, levi_table)


def gl_coproduct(a):
    """Parabolic deflations over all block splits, straightened and graded."""

    def pieces():
        for n, psi in a.terms.items():
            for i in range(n + 1):
                levi = levi_table(n, i, a.q)
                radical = radical_table(n, i, a.q)
                on_levi = deflate_cf(psi, levi, radical)
                yield (i, n - i), straighten_cf(
                    on_levi, range(1, i + 1), gl_table(i, a.q), gl_table(n - i, a.q)
                )

    return GradedTensor.collect(pieces(), a.q)


def product_hom_reports(total_degree, q):
    """Induction against the parabolic product, on the indicator basis."""
    reports = []
    for instance, pi, rho in _pair_instances(total_degree, q):
        xa = specialize(ScfElement.basis(pi), q)
        xb = specialize(ScfElement.basis(rho), q)
        lhs = induce_to_gl(ut_product(xa, xb))
        rhs = gl_product(induce_to_gl(xa), induce_to_gl(xb))
        reports.append(_report("induction-product", instance, lhs, rhs))
    return reports


def coproduct_hom_reports(degree, q):
    """Induction against the parabolic coproduct, on the indicator basis."""
    reports = []
    for instance, pi in _order_instances(degree, q):
        x = specialize(ScfElement.basis(pi), q)
        lhs = gl_coproduct(induce_to_gl(x))
        rhs = GradedTensor(q, {
            (i, j): induce_tensor(tensor, gl_table(i, q), gl_table(j, q))
            for (i, j), tensor in ut_coproduct(x).terms.items()
        })
        reports.append(_report("induction-coproduct", instance, lhs, rhs))
    return reports


def dagger_invariance_reports(degree, q):
    """Induction composed with the flip equals plain induction."""
    reports = []
    for instance, pi in _order_instances(degree, q):
        x = specialize(ScfElement.basis(pi), q)
        lhs = induce_to_gl(x.dagger())
        reports.append(_report("induction-dagger", instance, lhs, induce_to_gl(x)))
    return reports
