"""Mutation checks: small faults that the named tests must catch.

Each row of MUTANTS is (file, old text, new text, node ids): the file
relative to the repository root, a text that occurs in it exactly once, the
text that replaces it, and the tests that must fail once it is replaced.
test_mutants.py checks, in every test run, that each old text still occurs
exactly once and that each node id still names a test, so a refactor
updates the rows rather than let them go stale.  The full check is slower
and runs on its own:

    python tests/mutants.py

It copies src/, tests/ and pyproject.toml into a fresh temporary directory
for each mutant, applies the mutant there and runs only its node ids, one
pytest process at a time; the node ids are first run once on an unchanged
copy, and must pass there.  It prints one line per mutant and exits 1 if
any mutant survives.  Importing this module runs nothing.
"""

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

KERNEL = "src/uthopf/group_engine.py"
TUPLE_PRODUCT = "tests/test_group_engine.py::TestKernel::test_kernel_against_the_tuple_product"
WIDTH_BOUNDARY = ("tests/test_group_engine.py::TestKernel::"
                  "test_width_boundaries_against_the_field_loop[3-3-4]")
HOPF = "src/uthopf/hopf_core.py"
ORDERS = "src/uthopf/combinatorics.py"
COMBINATIONS = "src/uthopf/class_functions.py"
SUBSET_SUM = "tests/test_hopf_core.py::TestCoproduct::test_equals_the_subset_sum"
ANTIPODE_RECURSION = ("tests/test_hopf_core.py::TestAntipode::"
                      "test_equals_the_counit_recursion")
AGAINST_STRICT = "tests/test_combinatorics.py::TestProfileAgainstStrictPairs::"
ORACLE_SUMS = "tests/test_hopf_core.py::TestOracleSums::"
LAURENT = "tests/test_hopf_core.py::TestLaurentT::"
FROM_CODES = "tests/test_group_engine.py::TestTablesFromCodes::"
AGAINST_MATRICES = "tests/test_group_engine.py::TestCodesAgainstMatrices::"
BLOCKS = ("tests/test_class_functions.py::TestClassMapsAgainstReference::"
          "test_block_classes_against_the_matrix_blocks")
PRODUCT_SUMS = "tests/test_hopf_core.py::TestProductSums::test_sums_against_collect"
INT_KEY = "tests/test_combinatorics.py::TestProfileAgainstStrictPairs::"
ROW_BUILT = "tests/test_group_engine.py::TestGl::test_row_built_elements_equal_the_scan"
CELL_MOVE = "tests/test_group_engine.py::TestCellMove::"
GL_GENERATORS = ("tests/test_gl_bridge.py::TestParabolicTables::"
                 "test_gl_generators_are_the_listed_ones")

MUTANTS = [
    # the byte table reducing each byte as one number, not as two nibbles;
    # no table is built at collection, so the kernel tests fail by name
    (KERNEL,
     "table = bytes((b >> 4) % p << 4 | (b & 15) % p for b in range(256))",
     "table = bytes(b % p for b in range(256))",
     [TUPLE_PRODUCT + "[3]", WIDTH_BOUNDARY]),
    # fields one bit wider than needed at F_3, n <= 3
    (KERNEL,
     "max(4, (n * (p - 1) ** 2).bit_length())",
     "max(5, (n * (p - 1) ** 2).bit_length())",
     [WIDTH_BOUNDARY]),
    # 5-bit fields reduced through the 4-bit byte table
    (KERNEL, "if w == 4:", "if w <= 5:", [TUPLE_PRODUCT + "[3]"]),
    # one 64-bit word per code in a batch, also for wider codes
    (KERNEL, "slot = 8 * max(1, -(-n * n * w // 64))", "slot = 8",
     [TUPLE_PRODUCT + "[3]"]),
    # the rows selected at p = 2 added with carries, not XORed
    (KERNEL,
     "out ^= (a >> ka & column) * (b >> kb & row)",
     "out += (a >> ka & column) * (b >> kb & row)",
     [TUPLE_PRODUCT + "[2]"]),
    # coefficients interned by their exponents alone, so that values with
    # the same exponents share one object; the first such pair is at degree 5
    (HOPF, "key = tuple(sorted(terms.items()))", "key = tuple(sorted(terms))",
     [SUBSET_SUM + "[5]",
      "tests/test_hopf_core.py::TestSharedCoefficients::"
      "test_interned_values_equal_their_counts"]),
    # the interned products of interned values keyed by the left factor only
    (HOPF, "key = id(a), id(b)", "key = id(a)",
     [SUBSET_SUM + "[4]", ANTIPODE_RECURSION + "[4]",
      "tests/test_hopf_core.py::TestSharedCoefficients::"
      "test_products_of_interned_values_are_interned"]),
    # the counit recursion of a connected order seeded with +pi, not -pi
    (HOPF, "sums = {pi: {0: -1}}", "sums = {pi: {0: 1}}",
     [ANTIPODE_RECURSION + "[1]",
      "tests/test_hopf_core.py::TestAntipode::test_point_and_antichain"]),
    # a pattern group class function relabelled along the inverse of the
    # mapping, not the mapping itself; a 3-cycle tells the two apart
    (HOPF, "[mapping[i] for i in source.ground]", "sorted(mapping, key=mapping.get)",
     ["tests/test_hopf_core.py::TestMonoidLevel::"
      "test_relabel_moves_values_along_the_mapping"]),
    # the splits of a coproduct added over the lcm of the radical orders
    # without their weight d / |radical|
    (HOPF, "d // radical.order", "1",
     [ORACLE_SUMS + "test_parabolic_coproduct[ut-4-2]",
      "tests/test_hopf_core.py::TestSpecialize::test_coproduct_oracle_small[2]"]),
    # the coefficients of a specialized tensor added as their numerators
    # alone, not over the lcm of their denominators
    (HOPF, "num * (d // den)", "num",
     [ORACLE_SUMS + "test_specialize_tensor[2]",
      "tests/test_hopf_core.py::TestSpecialize::test_ut_coproduct_matches_symbolic"]),
    # inflation without the size of each Levi class
    (COMBINATIONS, "sizes[c] * k * v", "k * v",
     ["tests/test_class_functions.py::TestClassMapsAgainstReference::test_product[ut-4-2]",
      "tests/test_class_functions.py::TestInduction::test_classwise_equals_naive[3-2]"]),
    # trusted construction keeping zero coefficients
    (COMBINATIONS, "if not c or type(c) is Fraction and c.denominator == 1]",
     "if type(c) is Fraction and c.denominator == 1]",
     ["tests/test_hopf_core.py::TestTrustedConstruction::"
      "test_adopts_its_dict_like_the_comprehension",
      "tests/test_hopf_core.py::TestLaurentT::test_zero_coefficients_are_dropped"]),
    # the side orders of a splits walk memoized by their size only
    (ORDERS,
     "order = sides.get(rows)\n"
     "            if order is None:\n"
     "                order = sides[rows]",
     "order = sides.get(len(rows))\n"
     "            if order is None:\n"
     "                order = sides[len(rows)]",
     [SUBSET_SUM + "[3]", AGAINST_STRICT + "test_shifted_restrict_and_ascent_count"]),
    # shifted sums memoized by the left profile only
    (ORDERS, "key = self._profile, other._profile", "key = self._profile",
     [AGAINST_STRICT + "test_shifted_sum",
      "tests/test_combinatorics.py::TestNuio::test_shifted_sum"]),
    # a piece split off wherever c(k) >= k + 1, not only at c(k) = k + 1
    (ORDERS, "prof[k - 1] == k + 1", "prof[k - 1] >= k + 1",
     [AGAINST_STRICT + "test_top_piece", ANTIPODE_RECURSION + "[2]"]),
    # the antipodes of the pieces multiplied bottom first, not top first
    (HOPF, "return _antipode_basis(top) * _antipode_basis(rest)",
     "return _antipode_basis(rest) * _antipode_basis(top)",
     [ANTIPODE_RECURSION + "[3]",
      "tests/test_hopf_core.py::TestAntipode::test_antihomomorphism"]),
    # the coproducts of the pieces multiplied top first, not bottom first
    (HOPF, "return _coproduct_basis(rest) * _coproduct_basis(top)",
     "return _coproduct_basis(top) * _coproduct_basis(rest)",
     [SUBSET_SUM + "[3]", "tests/test_hopf_core.py::TestCoproduct::test_coassociative"]),
    # the coproduct of an order read off its flip's with both factors
    # flipped but not swapped; the first order it gets wrong has degree 4
    (HOPF, "(r.dagger(), l.dagger()): c", "(l.dagger(), r.dagger()): c",
     [SUBSET_SUM + "[4]"]),
    # the antipode of an order read off its flip's with the orders left
    # unflipped
    (HOPF, "return _antipode_basis(dual).dagger()", "return _antipode_basis(dual)",
     [ANTIPODE_RECURSION + "[3]"]),
    # every one-term element served the cached basis value, whatever its
    # coefficient
    (HOPF, "(pi, c), = self.terms.items()\n            if c.terms == LaurentT._UNIT:",
     "(pi, c), = self.terms.items()\n            if True:",
     ["tests/test_hopf_core.py::TestCoproduct::test_basis_value_is_the_cached_one[2]",
      "tests/test_hopf_core.py::TestAntipode::test_basis_value_is_the_cached_one[2]"]),
    # the dagger of a class function read at the class itself, not moved
    (COMBINATIONS,
     "pullback_cf(psi, psi.group, flip_move(psi.group.p, len(psi.group.ground)))",
     "pullback_cf(psi, psi.group)",
     ["tests/test_class_functions.py::TestClassMapsAgainstReference::test_dagger[3-2]",
      "tests/test_hopf_core.py::TestSpecialize::test_ut_dagger_matches_symbolic"]),
    # pattern group codes built with the cell values in the outer loop, so
    # the element list is no longer in lexicographic order
    (KERNEL, "codes = [c + v * unit for c in codes for v in range(p)]",
     "codes = [c + v * unit for v in range(p) for c in codes]",
     ["tests/test_group_engine.py::TestElementBuildersAgainstReference::"
      "test_pattern_groups_on_three_labels[2]",
      "tests/test_group_engine.py::TestGroupTable::test_enumeration_is_lexicographic"]),
    # class members kept in orbit order, not sorted
    (KERNEL, "classes.append(tuple(sorted(orbit)))", "classes.append(tuple(orbit))",
     ["tests/test_group_engine.py::TestGroupTable::test_conjugacy_equals_the_orbit_search"]),
    # a cell's unit code taken as its whole field, not its lowest bit; the
    # two agree at p = 2, where the fields are one bit wide
    (KERNEL, "return bits & -bits", "return bits",
     [FROM_CODES + "test_nuio_pattern_tables_against_one_off[2-3]",
      "tests/test_group_engine.py::TestElementBuildersAgainstReference::"
      "test_pattern_groups_on_three_labels[5]"]),
    # the cycle generator keeping the identity's diagonal under its cycle
    (KERNEL, "_unit(p, ground, c, b) - _unit(p, ground, b, b)", "_unit(p, ground, c, b)",
     [GL_GENERATORS + "[2-2]"]),
    # the first column of the cycle generator scaled by s + 1, not s
    (KERNEL, "w += (s - 1) * _unit(", "w += s * _unit(", [GL_GENERATORS + "[2-3]"]),
    # the matrix form taking each generator's code whatever its field and
    # ground
    (KERNEL, "g.code if (g.p, g.ground) == (p, ground) else None", "g.code",
     [AGAINST_MATRICES + "test_bad_code_lists_raise_as_matrix_lists_do[generator-over-f5]"]),
    # each generator's inverse read as the element its left products send
    # to the first element, the identity only in the pattern groups
    (KERNEL, "lefts[-1].index(self.identity_index)", "lefts[-1].index(0)",
     [FROM_CODES + "test_generator_inverses_read_from_the_left_products[gl2q3]",
      "tests/test_group_engine.py::TestGroupTable::test_conjugacy_against_full_conjugation"]),
    # the pattern certificate passing every flag
    (HOPF, "list(map(at_rep.__getitem__, table.class_of)) != member", "False",
     ["tests/test_hopf_core.py::TestSpecialize::"
      "test_flag_certificate_rejects_a_pattern_that_is_not_normal[12-in-ut3-2]"]),
    # the matrix reference of a standardized block read on its labels in
    # reverse order
    ("tests/test_group_engine.py", "[[m.entry(i, j) for j in labels] for i in labels]",
     "[[m.entry(i, j) for j in labels[::-1]] for i in labels[::-1]]",
     ["tests/test_group_engine.py::TestFqMatrix::"
      "test_transports_match_the_validating_constructor[ut3q3]",
      BLOCKS + "[ut-4-2]"]),
    # a picked block with each cell's field taken from the transposed cell
    (KERNEL, "((a, b), (x, y)) for x, a in enumerate(at)",
     "((b, a), (x, y)) for x, a in enumerate(at)",
     [BLOCKS + "[ut-4-2]", CELL_MOVE + "test_picks_against_the_decoded_rows[2-4]",
      "tests/test_class_functions.py::TestClassMapsAgainstReference::"
      "test_straighten[ut-4-2]"]),
    # the flip moving entry (r, c) to the cell reflected through the
    # antidiagonal point, not the transposed one; both are involutions
    (KERNEL, "((r, c), (n - 1 - c, n - 1 - r))", "((r, c), (n - 1 - r, n - 1 - c))",
     [CELL_MOVE + "test_flip_against_the_rows_and_twice_the_identity[3]",
      "tests/test_group_engine.py::TestFqMatrix::test_dagger_pin"]),
    # fields that move up, to a higher bit, left where they are
    (KERNEL, "max(shift, 0), max(-shift, 0)", "max(shift, 0), 0",
     [CELL_MOVE + "test_moves_against_the_decoded_rows[3-4-3-5-4]",
      CELL_MOVE + "test_flip_against_the_rows_and_twice_the_identity[2]"]),
    # the target fields taken as wide as the source fields
    (KERNEL, "w, v, moves = _width(p, n), _width(p, m), {}",
     "w, v, moves = _width(p, n), _width(p, n), {}",
     [CELL_MOVE + "test_moves_against_the_decoded_rows[5-4-2-7-6]",
      CELL_MOVE + "test_picks_against_the_decoded_rows[5-4]", BLOCKS + "[ut-4-5]"]),
    # every exact quotient taken as num // den, also when it is not exact
    (COMBINATIONS, "return Fraction(num, den) if rest else quotient", "return quotient",
     ["tests/test_class_functions.py::TestExactForm::"
      "test_ratio_is_an_int_exactly_when_the_division_is_exact",
      ORACLE_SUMS + "test_specialize_tensor[2]"]),
    # every coefficient of specialize taken as the unit
    (HOPF, "if c.terms == LaurentT._UNIT:\n            return f._like",
     "if True:\n            return f._like",
     ["tests/test_hopf_core.py::TestSpecialize::"
      "test_unit_coefficients_skip_evaluate_and_scale[2]",
      "tests/test_hopf_core.py::TestSpecialize::test_linear"]),
    # the value at n/d summed without the factors n^(k - lo) d^(hi - k)
    (HOPF, "sum(a * n ** (k - lo) * d ** (hi - k) for k, a in terms.items())",
     "sum(terms.values())",
     [ORACLE_SUMS + "test_value_at_one_over_q_matches_the_fraction_loop[2]",
      "tests/test_hopf_core.py::TestSpecialize::test_ut_coproduct_matches_symbolic"]),
    # the value of Fraction coefficients taken over n^-lo d^hi alone, not
    # over the denominator of their sum times n^-lo d^hi
    (HOPF, "return v.numerator, v.denominator * n", "return v.numerator, n",
     [ORACLE_SUMS + "test_value_at_one_over_q_matches_the_fraction_loop[3]"]),
    # the value taken over d^hi alone, without n^-lo; at n/d = 1/q the two
    # agree, so only the points with n != 1 tell them apart
    (HOPF, "v.denominator * n ** -lo * d ** hi", "v.denominator * d ** hi",
     [LAURENT + "test_evaluate_matches_the_fraction_loop"]),
    # lo not capped at 0, so an order of t above 0 leaves a float power
    (HOPF, "lo, hi = min([0, *terms]), max([0, *terms])",
     "lo, hi = min(terms, default=0), max([0, *terms])",
     [LAURENT + "test_evaluate_matches_the_fraction_loop",
      ORACLE_SUMS + "test_value_at_one_over_q_matches_the_fraction_loop[2]"]),
    # hi not capped at 0, so a value with only negative exponents leaves a
    # float power of d
    (HOPF, "lo, hi = min([0, *terms]), max([0, *terms])",
     "lo, hi = min([0, *terms]), max(terms, default=0)",
     [LAURENT + "test_evaluate_matches_the_fraction_loop",
      ORACLE_SUMS + "test_value_at_one_over_q_matches_the_fraction_loop[2]"]),
    # deflation adding each pair of a column once, not k times
    (COMBINATIONS, "sums[l] += k * v", "sums[l] += v",
     ["tests/test_class_functions.py::TestClassMapsAgainstReference::test_deflate[ut-4-2]"]),
    # deflation reading only the first pair of each column, so a group class
    # that meets two Levi classes adds to the first of them alone
    (COMBINATIONS, "for l, k in columns[c]:", "for l, k in columns[c][:1]:",
     ["tests/test_class_functions.py::TestClassMapsAgainstReference::test_deflate[ut-4-2]"]),
    # unstraightening reading each class pair reversed
    (COMBINATIONS, "tensor.terms[pair] for c, pair in enumerate(pairs) if pair in tensor.terms",
     "tensor.terms[pair[::-1]] for c, pair in enumerate(pairs)\n"
     "        if pair[::-1] in tensor.terms",
     ["tests/test_class_functions.py::TestClassMapsAgainstReference::"
      "test_unstraighten[ut-4-2]"]),
    # the dagger's profile counting the rows at most n + 1 - i, not below it
    (ORDERS, "bisect.bisect_right(prof, n + 1 - i)", "bisect.bisect_left(prof, n + 1 - i)",
     [AGAINST_STRICT + "test_dagger", "tests/test_combinatorics.py::TestNuio::test_dagger_pin"]),
    # the dagger's profile reflected through n - i, not n + 1 - i
    (ORDERS, "n + 1 - bisect.bisect_right(prof, n + 1 - i)",
     "n + 1 - bisect.bisect_right(prof, n - i)",
     [AGAINST_STRICT + "test_dagger", "tests/test_combinatorics.py::TestNuio::test_dagger_pin"]),
    # a restriction's row counting the inside labels from c(i) + 1, not c(i)
    (ORDERS, "((inside >> c).bit_count(),) + ins", "((inside >> c + 1).bit_count(),) + ins",
     [AGAINST_STRICT + "test_shifted_restrict_and_ascent_count"]),
    # a restriction's row counting the other side's labels from c(i) + 1
    (ORDERS, "((rest >> c).bit_count(),) + outs", "((rest >> c + 1).bit_count(),) + outs",
     [AGAINST_STRICT + "test_shifted_restrict_and_ascent_count"]),
    # the ascents of i counting the label c(i) too
    (ORDERS, "(rest & (1 << c) - (bit << 1)).bit_count()",
     "(rest & (1 << c + 1) - (bit << 1)).bit_count()",
     [AGAINST_STRICT + "test_shifted_restrict_and_ascent_count", SUBSET_SUM + "[3]"]),
    # the ascents of i counting the inside labels, not the other side's
    (ORDERS, "(rest & (1 << c) - (bit << 1)).bit_count()",
     "(inside & (1 << c) - (bit << 1)).bit_count()",
     [AGAINST_STRICT + "test_shifted_restrict_and_ascent_count", SUBSET_SUM + "[3]"]),
    # the identity's code read off the first column, not the diagonal; the
    # two agree at n = 1
    (KERNEL, "sum(1 << shifts[r][r] for r in range(n))",
     "sum(1 << shifts[r][0] for r in range(n))",
     [AGAINST_MATRICES + "test_gl_tables[2-3]",
      "src/uthopf/group_engine.py::uthopf.group_engine.kernel"]),
    # the containment of a deflation's factors read in the levi, not the group
    (COMBINATIONS, "index.keys() >= set(f.codes)",
     "levi.index.keys() >= set(f.codes)",
     ["tests/test_class_functions.py::TestClassMapsAgainstReference::test_deflate[ut-4-2]"]),
    # a span grown by the new vector alone, without its other multiples; the
    # two agree at p = 2
    (KERNEL, "span.union([sums[w][m] for w in span for m in scaled[v]])",
     "span.union([sums[w][v] for w in span])",
     [ROW_BUILT + "[2-3]", AGAINST_MATRICES + "test_gl_tables[3-3]"]),
    # repeated codes let through when the table is built from Codes
    (KERNEL, "if len(self.index) != len(self.codes):",
     "if self._elements is not None and len(self.index) != len(self.codes):",
     [AGAINST_MATRICES + "test_bad_code_lists_raise_as_matrix_lists_do[repeated]"]),
    # straightening pairing each class with the values in reverse order
    (COMBINATIONS, "{pairs[c]: v for c, v in psi.terms.items()}",
     "{pairs[c]: v for c, v in zip(psi.terms, reversed(psi.terms.values()))}",
     ["tests/test_class_functions.py::TestClassMapsAgainstReference::"
      "test_straighten[ut-4-2]"]),
    # a sampled compatibility square drawing its total orders before B
    (HOPF,
     "B = _random_composition(rng, ground)\n"
     "            yield _compatibility(A, [_random_total(rng, b) for b in A.blocks], B)",
     "taus = [_random_total(rng, b) for b in A.blocks]\n"
     "            yield _compatibility(A, taus, _random_composition(rng, ground))",
     ["tests/test_cli.py::TestVerify::test_verify_output_is_pinned[monoid-axioms-json]",
      "tests/test_cli.py::TestVerify::"
      "test_verify_output_is_pinned[monoid-axioms-n3-q2-sampled]"]),
    # the order key read in base n, not n + 1, so that the row value n
    # carries into the row before it
    (ORDERS, "key = key * (n + 1) + (c if c <= n else 0)",
     "key = key * n + (c if c <= n else 0)",
     [INT_KEY + "test_int_key_sorts_like_the_profile_tuple",
      INT_KEY + "test_key_sorts_like_the_strict_pairs"]),
    # the order key without its leading digit, so that the keys of two
    # degrees overlap
    (ORDERS, "key = 1\n        for c in prof:", "key = 0\n        for c in prof:",
     [INT_KEY + "test_int_key_sorts_like_the_profile_tuple",
      "src/uthopf/combinatorics.py::uthopf.combinatorics.Nuio.key"]),
    # a product's key met twice holding the later term, not the sum
    (HOPF, "c = old + c", "c = c",
     [PRODUCT_SUMS + "[ScfElement]", SUBSET_SUM + "[2]"]),
    # a product's sum that cancels kept as a zero coefficient
    (HOPF, "if not c.terms:\n                    del out[key]",
     "if False:\n                    del out[key]",
     [PRODUCT_SUMS + "[ScfElement]", PRODUCT_SUMS + "[TensorScf]"]),
    # a product's sum interned when either summand is, not both
    (HOPF, "both = id(old) in _PRINTED and id(c) in _PRINTED",
     "both = id(old) in _PRINTED or id(c) in _PRINTED",
     [PRODUCT_SUMS + "[ScfElement]", PRODUCT_SUMS + "[TensorScf]"]),
    # collect adopting its sums as they are, zeros and integral Fractions
    # included
    (COMBINATIONS, "return cls._trusted(context, out)", "return cls._adopt(context, out)",
     ["tests/test_hopf_core.py::TestLaurentT::test_product_matches_the_collect_reference",
      "tests/test_hopf_core.py::TestAntipode::test_convolution_identities[1]"]),
]


def copy_tree(dest):
    """src/, tests/ and pyproject.toml of the repository, copied into dest."""
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name),
                        ignore=ignore)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def run_tests(root, node_ids):
    """The exit code of pytest over node_ids in the copy at root."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *node_ids],
        cwd=root, env=env, capture_output=True, text=True)
    return proc.returncode


def main():
    node_ids = sorted({i for *_, ids in MUTANTS for i in ids})
    with tempfile.TemporaryDirectory() as root:
        copy_tree(root)
        if run_tests(root, node_ids):
            print("the node ids fail on an unchanged copy")
            return 1
    survivors = 0
    for path, old, new, ids in MUTANTS:
        with tempfile.TemporaryDirectory() as root:
            copy_tree(root)
            target = os.path.join(root, path)
            with open(target) as fh:
                text = fh.read()
            if text.count(old) != 1:
                print("STALE    %s: %r" % (path, old))
                survivors += 1
                continue
            with open(target, "w") as fh:
                fh.write(text.replace(old, new))
            killed = run_tests(root, ids) != 0
        survivors += not killed
        print("%s %s: %r -> %r" % ("killed  " if killed else "SURVIVED", path, old, new))
    print("%d of %d mutants killed" % (len(MUTANTS) - survivors, len(MUTANTS)))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
