"""Induction from unitriangular groups to general linear groups.

Degreewise induction of class functions, the block Levi and radical tables,
the parabolic product and coproduct on the general linear side, and the
suites of cases checking that induction carries the unitriangular product,
coproduct and flip to them, each first checking the budget of its largest
group; hopf_core.verify_reports runs them.  All groups are explicitly
enumerated.  The product and coproduct are hopf_core.parabolic_product and
parabolic_coproduct, the bodies the unitriangular tower runs too, here over
the initial segment block splits: parabolic induction is read off the
deflation counts of the block split, so no parabolic group is built.
"""

from __future__ import annotations

import functools

from .group_engine import Codes, GroupTable, _check_gl_budget, _gl_generators, \
    _unit, gl_table, kernel
# deflate_cf is bound here too: perfbench/test_perfbench.py checks that
# the tracer rebinds this copy of it.
from .class_functions import deflate_cf, induce_cf, induce_tensor  # noqa: F401
from .hopf_core import (
    GradedTensor,
    ScfElement,
    _order_instances,
    _pair_instances,
    parabolic_coproduct,
    parabolic_product,
    specialize,
    split_tables,
    ut_coproduct,
    ut_product,
)


def _levi_generators(n, i, q):
    """The codes of the generators of gl_table(i, q) on the labels 1, ..., i
    followed by those of gl_table(n - i, q) on i+1, ..., n, each in the
    identity of degree n."""
    ground = tuple(range(1, n + 1))
    return _gl_generators(q, ground, ground[:i]) + _gl_generators(q, ground, ground[i:])


@functools.lru_cache(maxsize=None)
def parabolic_table(n, i, q):
    """Invertible matrices with vanishing lower left block of shape (n-i) x i,
    kept from the elements of gl_table(n, q) whose codes miss its bits; for
    i in (0, n) the block is empty and this is gl_table(n, q) itself.

    The product builds no parabolic group; this table is a reference for
    the tests, and perfbench/tracer.py wraps it by name.

    Generated by the Levi generators and one elementary radical matrix, the
    corner I + e_(i,i+1), all passed as codes: the Levi conjugates
    diag(A, B) of I + X are I + A X B^-1, so one nonzero X yields every rank
    one X, and their products give the whole radical."""
    gl = gl_table(n, q)
    if i in (0, n):
        return gl
    corner = kernel(q, n).one + _unit(q, gl.ground, i, i + 1)
    lower = kernel(q, n).mask((r, c) for r in range(i, n) for c in range(i))
    return GroupTable(
        Codes(q, gl.ground, [c for c in gl.codes if not c & lower]),
        generators=_levi_generators(n, i, q) + [corner],
        name="GL%dP%dq%d" % (n, i, q),
    )


@functools.lru_cache(maxsize=None)
def levi_table(n, i, q):
    """Block diagonal invertible matrices, blocks of sizes i and n - i, kept
    from the elements of gl_table(n, q) whose two off diagonal blocks
    vanish, read off the bits of their codes; for i in (0, n) there is one
    block and this is gl_table(n, q) itself."""
    gl = gl_table(n, q)
    if i in (0, n):
        return gl
    off = kernel(q, n).mask((r, c) for r in range(n) for c in range(n)
                            if (r < i) != (c < i))
    return GroupTable(
        Codes(q, gl.ground, [c for c in gl.codes if not c & off]),
        generators=_levi_generators(n, i, q),
        name="GL%dL%dq%d" % (n, i, q),
    )


def radical_table(n, i, q):
    """Unipotent matrices supported on the upper right block of shape i x (n-i)."""
    return split_tables(n, tuple(range(1, i + 1)), q)[1]


def induce_to_gl(a):
    """Degreewise induction of a graded unitriangular class function."""
    return a._like({n: induce_cf(f, gl_table(n, a.q)) for n, f in a.terms.items()})


def gl_product(a, b):
    """Parabolic induction of each pair of components up the block splits."""
    return parabolic_product(a, b, gl_table, levi_table)


def _gl_splits(n, q):
    for i in range(n + 1):
        yield tuple(range(1, i + 1)), levi_table(n, i, q), radical_table(n, i, q)


def gl_coproduct(a):
    """Parabolic deflations over all block splits, straightened and graded."""
    return parabolic_coproduct(a, gl_table, _gl_splits)


def product_hom_cases(total_degree, q):
    """Induction against the parabolic product, on the indicator basis."""
    _check_gl_budget(total_degree, q)
    for instance, pi, rho in _pair_instances(total_degree, q):
        xa = specialize(ScfElement.basis(pi), q)
        xb = specialize(ScfElement.basis(rho), q)
        yield ("induction-product", instance, induce_to_gl(ut_product(xa, xb)),
               gl_product(induce_to_gl(xa), induce_to_gl(xb)))


def coproduct_hom_cases(degree, q):
    """Induction against the parabolic coproduct, on the indicator basis."""
    _check_gl_budget(degree, q)
    for instance, pi in _order_instances(degree, q):
        x = specialize(ScfElement.basis(pi), q)
        yield ("induction-coproduct", instance, gl_coproduct(induce_to_gl(x)),
               GradedTensor(q, {
                   (i, j): induce_tensor(tensor, gl_table(i, q), gl_table(j, q))
                   for (i, j), tensor in ut_coproduct(x).terms.items()
               }))


def dagger_invariance_cases(degree, q):
    """Induction composed with the flip equals plain induction."""
    _check_gl_budget(degree, q)
    for instance, pi in _order_instances(degree, q):
        x = specialize(ScfElement.basis(pi), q)
        yield "induction-dagger", instance, induce_to_gl(x.dagger()), induce_to_gl(x)
