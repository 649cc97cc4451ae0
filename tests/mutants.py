"""A catalogue of faults that the tier-1 tests must catch, and its runner.

Each mutant names a file under ``src/``, an exact snippet that occurs in it
once, the snippet's replacement and the tier-1 tests that must fail once it
is applied.  The runner copies ``src/`` to a temporary directory, applies
one mutant at a time to the copy, and runs the mutant's tests against it,
with a fresh component cache per run (``tests/conftest.py``).  It fails when
a snippet no longer matches exactly once, when a listed test passes on the
mutated copy (the mutant survives it), or when a run takes longer than
``LIMIT_S``.  So a refactor that moves a snippet must carry its mutant along.

    python tests/mutants.py

Not part of tier-1: pytest collects no file of this name.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIMIT_S = 60.0


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # test ids; a parametrized test fails when any of its cases does


MUTANTS = (
    Mutant(
        "aa_sum_without_a_rotation",
        "ramops/graphalg.py",
        '"aa_sum": RelationFamily(("a",), 3, lambda s: [_rotations("a", "a", *s)]),',
        '"aa_sum": RelationFamily(("a",), 3, lambda s: [_rotations("a", "a", *s)[:2]]),',
        (
            "tests/test_graphalg.py::test_relation_words_and_instances_match_their_digests",
            "tests/test_graphalg.py::test_algebra_dims_match_operad_dims",
            "tests/test_forms.py::test_relation_survey_verdicts",
            "tests/test_acceptance.py::test_criterion_3_dual_side_dimensions_match",
        ),
    ),
    Mutant(
        "ab_sum_second_half_colors_swapped",
        "ramops/graphalg.py",
        '[_rotations("b", "a", *s) + _rotations("a", "b", *s)]',
        '[_rotations("b", "a", *s) + _rotations("b", "a", *s)]',
        (
            "tests/test_graphalg.py::test_relation_words_and_instances_match_their_digests",
            "tests/test_graphalg.py::test_algebra_dims_match_operad_dims",
            "tests/test_cooperad.py::test_theta_kills_all_relations_small_splits",
            "tests/test_acceptance.py::test_criterion_3_dual_side_dimensions_match",
        ),
    ),
    Mutant(
        "cycle_skip_in_full_mode_too",
        "ramops/graphalg.py",
        'RELATION_FAMILIES[family].size is None and mode == "forest":',
        "RELATION_FAMILIES[family].size is None:",
        (
            "tests/test_graphalg.py::test_relation_words_and_instances_match_their_digests",
            "tests/test_graphalg.py::test_forest_dims_equal_full_dims",
            "tests/test_payload_digests.py::test_payload_bytes_match_the_golden_of_the_engine_format",
        ),
    ),
    Mutant(
        "float_through_integral",
        "ramops/linalg.py",
        "vals = [exact(v) for v in row.values()]",
        "vals = [Fraction(v) for v in row.values()]",
        ("tests/test_linalg.py::test_rows_are_refused_outside_the_columns_or_inexact",),
    ),
    Mutant(
        "coproduct_sign_without_hg2_hv1",
        "ramops/ram.py",
        "return -1 if (hg2 * hu1 + (hg2 + hu2) * hv1) & 1 else 1",
        "return -1 if (hg2 * hu1 + hu2 * hv1) & 1 else 1",
        (
            "tests/test_ram.py::test_hopf_check_small",
            "tests/test_ram.py::test_hopf_check_matches_oracle",
            "tests/test_ram.py::test_coproduct_commutes_with_relabeling",
        ),
    ),
    Mutant(
        "derivation_signs_right_without_hl",
        "ramops/ram.py",
        "return (-1 if hg & 1 else 1), (-1 if (hg + hl) & 1 else 1)",
        "return (-1 if hg & 1 else 1), (-1 if hg & 1 else 1)",
        (
            "tests/test_ram.py::test_hopf_check_small",
            "tests/test_ram.py::test_hopf_check_matches_oracle",
            "tests/test_ram.py::test_preserves_ideal_matches_span_oracle",
            "tests/test_ram.py::test_ideal_verdicts_read_no_grafted_span",
            "tests/test_acceptance.py::test_criterion_7_property_suites",
        ),
    ),
    Mutant(
        "derivation_signs_left_unsigned",
        "ramops/ram.py",
        "return (-1 if hg & 1 else 1), (-1 if (hg + hl) & 1 else 1)",
        "return 1, (-1 if (hg + hl) & 1 else 1)",
        (
            "tests/test_ram.py::test_hopf_check_small",
            "tests/test_ram.py::test_hopf_check_matches_oracle",
            "tests/test_ram.py::test_ideal_verdicts_read_no_grafted_span",
            "tests/test_acceptance.py::test_criterion_7_property_suites",
        ),
    ),
    Mutant(
        "coproduct_parts_sign_reading_hg1",
        "ramops/ram.py",
        "sign = s1 * s2 * _coproduct_sign(hg2, hu1, hu2, hv1)",
        "sign = s1 * s2 * _coproduct_sign(hg1, hu1, hu2, hv1)",
        (
            "tests/test_ram.py::test_hopf_check_matches_oracle",
            "tests/test_ram.py::test_basis_images_equal_the_normalised_free_images",
        ),
    ),
    Mutant(
        "coproduct_parts_h_without_hv",
        "ramops/ram.py",
        "hg1 + hu1 + hv1, hg2 + hu2 + hv2",
        "hg1 + hu1, hg2 + hu2",
        (
            "tests/test_ram.py::test_hopf_check_matches_oracle",
            "tests/test_ram.py::test_basis_images_equal_the_normalised_free_images",
        ),
    ),
    Mutant(
        "diff_tree_signs_reading_hr",
        "ramops/ram.py",
        "left_sign, right_sign = _derivation_signs(hg, hl)",
        "left_sign, right_sign = _derivation_signs(hg, hr)",
        (
            "tests/test_ram.py::test_differential_leibniz_sign",
            "tests/test_ram.py::test_differentials_square_to_zero_up_to_arity_4",
            "tests/test_ram.py::test_hopf_check_matches_oracle",
            "tests/test_ram.py::test_preserves_ideal_matches_span_oracle",
            "tests/test_ram.py::test_basis_images_equal_the_normalised_free_images",
            "tests/test_ram.py::test_derivation_identities_fail_alike_on_the_basis_and_every_monomial",
        ),
    ),
    Mutant(
        "diff_tree_h_without_hr",
        "ramops/ram.py",
        "return terms, hg + hl + hr",
        "return terms, hg + hl",
        ("tests/test_ram.py::test_basis_images_equal_the_normalised_free_images",),
    ),
    Mutant(
        "leading_rule_without_the_order_condition",
        "ramops/operad.py",
        "if rule is None or y_min > z_min:",
        "if rule is None:",
        (
            "tests/test_operad.py::test_component_basis_examples",
            "tests/test_ram.py::test_counted_dims_equal_the_listed_component",
            "tests/test_spans.py::test_normal_trees_certify_a_quadratic_groebner_basis",
        ),
    ),
    Mutant(
        "groebner_dims_binomial_set_to_one",
        "ramops/ram.py",
        "ways = comb(k - 1 - p, k - a - 1)",
        "ways = 1",
        (
            "tests/test_ram.py::test_counted_dims_equal_the_listed_component",
            "tests/test_ram.py::test_ram_counts_equal_the_prediction_through_12",
            "tests/test_acceptance.py::test_criterion_1_dimension_match_through_arity_4",
        ),
    ),
    Mutant(
        "composite_dims_binomial_set_to_one",
        "ramops/ram.py",
        "_convolve(combs[m], comb(m - 1, a - 1), factor[a], combs[m - a])",
        "_convolve(combs[m], 1, factor[a], combs[m - a])",
        (
            "tests/test_ram.py::test_ram_dims_small",
            "tests/test_ram.py::test_counted_dims_equal_the_listed_component",
            "tests/test_ram.py::test_poisson_and_bessel_counts_equal_their_psi_projections_through_10",
        ),
    ),
    Mutant(
        "ideal_span_rows_with_the_sign_flipped",
        "ramops/operad.py",
        "bump(row, comp.basis[slot], -c)",
        "bump(row, comp.basis[slot], c)",
        ("tests/test_spans.py::test_ideal_span_is_a_basis_of_the_grafted_span",),
    ),
    Mutant(
        "d_B_reading_h_of_the_left_child_as_zero",
        "ramops/ram.py",
        "hl = self.rw.key_odd[nl[0][0]] if nl else 0",
        "hl = 0",
        (
            "tests/test_ram.py::test_basis_images_equal_the_normalised_free_images",
            "tests/test_ram.py::test_preserves_ideal_matches_span_oracle",
            "tests/test_ram.py::test_ideal_verdicts_read_no_grafted_span",
            "tests/test_acceptance.py::test_criterion_7_property_suites",
        ),
    ),
    Mutant(
        "delta_B_sign_index_without_hv1",
        "ramops/ram.py",
        "coeff = signs[at + hv1] * cu * cv",
        "coeff = signs[at] * cu * cv",
        (
            "tests/test_ram.py::test_basis_images_equal_the_normalised_free_images",
            "tests/test_ram.py::test_hopf_check_matches_oracle",
            "tests/test_ram.py::test_ideal_verdicts_read_no_grafted_span",
            "tests/test_acceptance.py::test_criterion_7_property_suites",
        ),
    ),
    Mutant(
        "groebner_root_without_the_parity_of_z",
        "ramops/operad.py",
        "at = 4 * odd[x] + 2 * odd[y] + odd[j]",
        "at = 4 * odd[x] + 2 * odd[y]",
        (
            "tests/test_operad.py::test_normal_forms_match_their_digest",
            "tests/test_spans.py::test_rewriting_payload_matches_span_oracle",
            "tests/test_ram.py::test_distributive_check_agrees_with_the_grafted_span",
        ),
    ),
    Mutant(
        "basis_ids_not_first",
        "ramops/operad.py",
        "self.trees: list[Tree] = self.basis + [t for trees_on_block in smaller for t in trees_on_block]",
        "self.trees: list[Tree] = [t for trees_on_block in self.normal_trees.values() for t in trees_on_block]",
        (
            "tests/test_operad.py::test_normal_forms_match_their_digest",
            "tests/test_quotient.py::test_monomial_normal_form_matches_normal_form",
            "tests/test_quotient.py::test_coords_match_oracle_reduce",
        ),
    ),
    Mutant(
        "one_step_skip_without_its_expansion_test",
        "ramops/operad.py",
        "if slot is not None and expansion == ((slot, 1),):",
        "if slot is not None:",
        ("tests/test_quotient.py::test_ideal_witness_checks_basis_monomials",),
    ),
    Mutant(
        "slot_expansion_of_a_tree_on_a_smaller_block",
        "ramops/operad.py",
        "if out and out[-1][0] >= self.dim:",
        "if False:",
        ("tests/test_quotient.py::test_an_operad_component_refuses_a_tree_off_its_labels",),
    ),
    Mutant(
        "bracket_without_the_symmetry_of_g",
        "ramops/operad.py",
        "sign = self.pres.gens[g].symmetry * self.koszul((p, q))",
        "sign = self.koszul((p, q))",
        (
            "tests/test_operad.py::test_normal_forms_match_their_digest",
            "tests/test_operad.py::test_normal_form_equivariance",
            "tests/test_ram.py::test_distributive_check_examples",
        ),
    ),
)


def _failed(output: str) -> set[str]:
    """The ids of the failed tests in the short summary of ``pytest -rf``."""
    return {line.split(" ", 1)[1].split(" - ", 1)[0] for line in output.splitlines() if line.startswith("FAILED ")}


def run(mutant: Mutant) -> str | None:
    """Apply the mutant to a copy of src/ and run its tests: None when every
    listed test fails, else what went wrong."""
    with tempfile.TemporaryDirectory(prefix="ramops-mutant-") as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src, ignore=shutil.ignore_patterns("__pycache__"))
        target = os.path.join(src, mutant.path)
        with open(target, encoding="utf-8") as fh:
            text = fh.read()
        if text.count(mutant.snippet) != 1:
            return f"its snippet occurs {text.count(mutant.snippet)} times in src/{mutant.path}, not once"
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text.replace(mutant.snippet, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *mutant.tests]
        start = time.perf_counter()
        try:
            done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=LIMIT_S)
        except subprocess.TimeoutExpired:
            return f"its tests ran past {LIMIT_S:.0f} s"
        elapsed = time.perf_counter() - start
    if done.returncode not in (0, 1):  # 1: some test failed; anything else is a broken run
        return f"pytest exited {done.returncode}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}"
    failed = _failed(done.stdout)
    survived = [t for t in mutant.tests if not any(f == t or f.startswith(t + "[") for f in failed)]
    if survived:
        return f"it survives {survived}"
    print(f"killed {mutant.name} in {elapsed:.1f} s")
    return None


def main() -> int:
    faults = [(m.name, run(m)) for m in MUTANTS]
    for name, fault in faults:
        if fault is not None:
            print(f"FAIL {name}: {fault}")
    return 1 if any(fault is not None for _, fault in faults) else 0


if __name__ == "__main__":
    sys.exit(main())
