"""Validation that must survive python -O, which strips assert statements.

The tests named below check explicit exceptions and exit codes; this runs
them again in a fresh interpreter started with -O.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

NODE_IDS = [
    "tests/test_group_engine.py::TestFactorization::test_order_mismatch_raises",
    "tests/test_group_engine.py::TestFactorization::test_overlap_raises",
    "tests/test_group_engine.py::TestFactorization::"
    "test_complement_that_is_not_a_levi_raises",
    "tests/test_cli.py::TestErrors::test_malformed_operand_exits_two",
    "tests/test_cli.py::TestErrors::test_bad_sampling_flags_exit_two",
    "tests/test_combinatorics.py::TestSetComposition::test_rejects_repeated_labels",
    "tests/test_combinatorics.py::TestSetComposition::"
    "test_concat_requires_disjoint_grounds",
    "tests/test_combinatorics.py::TestPartialOrder::test_rejects_cycles",
    "tests/test_combinatorics.py::TestPartialOrder::"
    "test_rejects_non_transitive_pairs",
    "tests/test_combinatorics.py::TestNuio::test_rejects_non_closed_order",
    "tests/test_combinatorics.py::TestNuio::test_rejects_backwards_pair",
    "tests/test_combinatorics.py::TestNuio::test_from_dyck_rejects_bad_words",
    "tests/test_class_functions.py::TestTensorFunction::"
    "test_inexact_coefficient_raises",
    "tests/test_class_functions.py::TestClassFunction::"
    "test_from_function_check_rejects_non_class_function",
    "tests/test_class_functions.py::TestClassFunction::"
    "test_subgroup_indicator_requires_normality",
    "tests/test_group_engine.py::TestFqMatrix::test_prime_field_required",
    "tests/test_group_engine.py::TestFqMatrix::test_rows_must_match_the_ground",
    "tests/test_group_engine.py::TestFqMatrix::"
    "test_ground_must_be_sorted_and_distinct",
    "tests/test_group_engine.py::TestGroupTable::test_generators_are_required",
    "tests/test_group_engine.py::TestGroupTable::test_bad_element_lists_raise",
    "tests/test_group_engine.py::TestGroupTable::"
    "test_generators_that_do_not_generate_raise",
    "tests/test_group_engine.py::TestFqMatrix::test_inverse",
    "tests/test_class_functions.py::TestInduction::"
    "test_fusion_rejects_a_non_subgroup",
    "tests/test_class_functions.py::TestClassFunction::test_caller_errors_raise",
    "tests/test_class_functions.py::TestInflationDeflation::"
    "test_inflate_requires_a_function_on_the_levi",
    "tests/test_class_functions.py::TestInflationDeflation::"
    "test_deflation_validates_before_inflation_reads",
    "tests/test_hopf_core.py::TestSpecialize::test_ut_product_rejects_mixed_primes",
    "tests/test_hopf_core.py::TestMonoidLevel::"
    "test_inflate_needs_the_parabolic_to_be_everything",
    "tests/test_gl_bridge.py::TestInduction::test_product_rejects_mixed_primes",
    "tests/test_cli.py::TestErrors::test_axiom_budget_counts_the_largest_family",
    "tests/test_group_engine.py::TestFqMatrix::test_product_needs_one_field_and_ground",
    "tests/test_combinatorics.py::TestPartialOrder::"
    "test_relabel_needs_a_bijection_on_the_ground",
    "tests/test_combinatorics.py::TestPartialOrder::"
    "test_disjoint_union_rejects_overlapping_grounds",
    "tests/test_combinatorics.py::TestPartialOrder::"
    "test_ordinal_sum_rejects_overlapping_grounds",
    "tests/test_combinatorics.py::TestSplitPatterns::"
    "test_split_needs_the_ground_of_the_order",
    "tests/test_class_functions.py::TestClassMapsAgainstReference::"
    "test_straightening_needs_a_block_product",
    "tests/test_class_functions.py::TestInflationDeflation::"
    "test_levi_and_radical_must_lie_in_the_group",
    "tests/test_class_functions.py::TestInflationDeflation::"
    "test_levi_and_radical_must_meet_only_in_the_identity",
    "tests/test_group_engine.py::TestFqMatrix::"
    "test_relabel_needs_a_bijection_from_the_ground",
    "tests/test_group_engine.py::TestFqMatrix::test_block_needs_labels_in_the_ground",
    "tests/test_group_engine.py::TestPermutations::"
    "test_permutation_matrix_needs_a_permutation_of_the_ground",
    "tests/test_group_engine.py::TestGroupTable::"
    "test_pattern_group_needs_a_partial_order",
    "tests/test_combinatorics.py::TestPartialOrder::"
    "test_restrict_needs_labels_in_the_ground",
    "tests/test_group_engine.py::TestGroupTable::test_singular_generator_raises",
    "tests/test_combinatorics.py::TestNuio::"
    "test_rejects_sizes_and_labels_that_are_not_ints",
    "tests/test_hopf_core.py::TestLaurentT::"
    "test_from_dict_rejects_float_and_bool_coefficients",
    "tests/test_cli.py::TestErrors::test_suite_budget_checked_before_any_report",
    "tests/test_cli.py::TestErrors::test_symbolic_budget_exceeded",
    "tests/test_class_functions.py::TestClassFunction::"
    "test_class_keys_must_be_class_indices",
    "tests/test_group_engine.py::TestFqMatrix::test_equal_rows_over_two_fields_are_unequal",
    "tests/test_group_engine.py::TestGroupTable::test_membership_reads_field_and_ground",
    "tests/test_class_functions.py::TestInduction::"
    "test_same_codes_on_another_ground_are_not_a_subgroup",
    "tests/test_class_functions.py::TestInflationDeflation::"
    "test_levi_and_radical_on_another_ground_do_not_lie_in_the_group",
    "tests/test_group_engine.py::TestFqMatrix::test_entries_must_be_ints",
    "tests/test_class_functions.py::TestClassFunction::test_inexact_values_raise",
    "tests/test_hopf_core.py::TestLaurentT::test_inexact_scalars_raise",
    "tests/test_group_engine.py::TestBudget::test_prime_check_respects_budget",
    "tests/test_cli.py::TestErrors::test_prime_check_over_budget_exits_two",
    "tests/test_cli.py::TestVerify::test_failure_exits_one",
    "tests/test_cli.py::TestErrors::test_huge_degree_refused_at_once",
    "tests/test_combinatorics.py::TestNuio::test_bad_profile_is_never_interned",
    "tests/test_group_engine.py::TestGl::"
    "test_primitive_root_refuses_composites",
    "tests/test_combinatorics.py::TestPartialOrder::test_labels_must_be_ints",
    "tests/test_group_engine.py::TestBudget::test_pattern_group_refused_at_once",
    "tests/test_cli.py::TestErrors::test_operand_past_the_budget_exits_two",
    "tests/test_group_engine.py::TestKernel::"
    "test_width_boundaries_against_the_field_loop",
    "tests/test_group_engine.py::TestKernel::"
    "test_batches_against_the_single_product",
    "tests/test_group_engine.py::TestKernel::test_batches_of_two_word_codes",
    "tests/test_hopf_core.py::TestAddition::test_other_types_raise",
    "tests/test_hopf_core.py::TestAddition::test_other_contexts_raise_value_error",
    "tests/test_combinatorics.py::TestNuio::"
    "test_closed_form_profile_against_the_closure",
    "tests/test_combinatorics.py::TestNuio::"
    "test_strict_pairs_past_the_budget_are_refused",
    "tests/test_cli.py::TestErrors::test_strict_pairs_past_the_budget_exit_two",
    "tests/test_hopf_core.py::TestLaurentT::"
    "test_from_dict_rejects_two_keys_of_one_exponent",
    "tests/test_cli.py::TestErrors::test_two_keys_of_one_exponent_exit_two",
    "tests/test_cli.py::TestErrors::test_bad_budget_setting_exits_two",
    "tests/test_combinatorics.py::TestSetComposition::test_rejects_empty_blocks",
    "tests/test_combinatorics.py::TestPartialOrder::test_rejects_non_reflexive_pairs",
    "tests/test_group_engine.py::TestTablesFromCodes::"
    "test_generator_without_an_inverse_raises",
    "tests/test_hopf_core.py::TestSpecialize::"
    "test_flag_certificate_rejects_a_pattern_that_is_not_normal",
    "tests/test_class_functions.py::TestClassMapsAgainstReference::"
    "test_straightening_needs_labels_of_the_ground",
    "tests/test_cli.py::TestErrors::test_bad_budget_setting_names_the_setting",
    "tests/test_group_engine.py::TestCodesAgainstMatrices::"
    "test_bad_code_lists_raise_as_matrix_lists_do",
    "tests/test_class_functions.py::TestClassMapsAgainstReference::"
    "test_straightening_needs_tables_on_the_initial_segments",
    "tests/test_cli.py::TestErrors::test_budget_refuses_a_table_already_built",
]


def test_validation_survives_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *NODE_IDS],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "159 passed" in proc.stdout, proc.stdout[-3000:]
    assert "python -O" in proc.stdout, "the subprocess did not run optimized"
