"""Planted faults, each with the tier-1 tests that must fail under it.

Each entry of MUTANTS names a fault, the file under src/cbv it edits, an old
text that occurs there exactly once, its replacement, and the tests (node
ids under tests/) of which every one must fail once the fault is applied.
The list is a test oracle: a change that rewrites one of these old texts
updates its entry in the same diff.

    python tests/mutants.py

copies src/ to a temporary directory and runs every named test there once on
the unchanged copy, where all must pass; then, for each entry, applies its
fault to a fresh copy and runs its tests in a subprocess under the
Hypothesis profile "mutants" (fixed draws, no shrinking, no database).  It
exits 1 when an old text does not occur exactly once, when the tests import
a cbv other than the copy, or when a named test passes under its fault.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant("gate certifies with no rounding margin", "engine.py",
           "margin = 1.0 + (n + 2) * float(np.finfo(float).eps) / 2", "margin = 1.0",
           ("test_engine.py::TestSpectralBound::test_a_bound_within_rounding_of_1_certifies_nothing",)),
    Mutant("Collatz-Wielandt lower bound frozen", "engine.py",
           "lower = max(lower, float(ratios.min()))", "lower = lower",
           ("test_engine.py::TestSpectralBound::test_an_asymmetric_cycle_is_refused_after_one_pass",)),
    Mutant("cut_edges drops |amount| <= tau, not < tau", "engine.py",
           "keep = ~(np.abs(priced) < tau)", "keep = ~(np.abs(priced) <= tau)",
           ("test_stored_form.py::test_every_boundary_total_is_the_sum_of_its_priced_edges",)),
    Mutant("regime B reads a value behind a held -0.0 share", "engine.py",
           "return stats.b_p + o_po.edges() @ stats.v_o", "return stats.b_p + o_po @ stats.v_o",
           ("test_engine.py::TestRegimeB::test_value_behind_a_held_negative_zero_share_is_not_read",)),
    Mutant("an amount-form P->O edge is not scaled", "engine.py",
           '"x_po": ("p_ids", "o_ids", True),', '"x_po": ("p_ids", "o_ids", False),',
           ("test_network.py::test_restrict_and_scale_units_array_by_array",)),
    Mutant("Fisher cells 1 and 2 swapped", "fisher.py",
           "evaluate_for_observer(curr, obs_prev, cfg),\n"
           "        evaluate_for_observer(prev, obs_curr, cfg),",
           "evaluate_for_observer(prev, obs_curr, cfg),\n"
           "        evaluate_for_observer(curr, obs_prev, cfg),",
           ("test_acceptance.py::test_criterion_12_fisher_protocol",)),
    Mutant("an infinite eps is accepted", "observer.py",
           "not 0 < eps < math.inf", "not 0 < eps <= math.inf",
           ("test_clearing.py::TestClear::test_refuses_bad_iteration_settings[eps-inf]",)),
    Mutant("clearing clips payments at 0 but not at the dues", "clearing.py",
           "return np.clip(out, 0.0, dues, out=out)", "return np.maximum(out, 0.0, out=out)",
           ("test_acceptance.py::test_criterion_13_clearing_oracle_and_invariance",)),
    Mutant("the running sum of default costs adds the first class only", "clearing.py",
           "out[k] += out[k - 1]", "out[k] += out[0]",
           ("test_clearing.py::TestClear::test_sparse_sweeps_match_dense_picard",)),
    Mutant("normalized control divides empty columns", "control.py",
           "out=omega, where=sums > 0)", "out=omega, where=sums >= 0)",
           ("test_control.py::TestOptionA::test_normalization_of_multiple_controllers",)),
    Mutant("B' divides a column of held -0.0 by its zero sum", "control.py",
           "out=squares, where=squares > 0)", "out=squares, where=square_sums[held.cols] >= 0)",
           ("test_control.py::TestOptionB::test_column_of_held_negative_zeros_weighs_nothing",)),
    Mutant("partition drops one O_PO edge", "network.py",
           "o_pp=o_pp, o_po=o_po, o_op=o_op,",
           "o_pp=o_pp, o_op=o_op,\n"
           "        o_po=_HeldEdges(o_po.shape, o_po.rows[1:], o_po.cols[1:], o_po.vals[1:]),",
           ("test_engine.py::TestPartitionIdentity::test_a_partition_prices_its_cross_holdings_out",
            "test_network.py::TestPartition::test_blocks_match_entry_classification")),
    Mutant("band probes priced at tau = 0", "robustness.py",
           't_in = cut_edges(stats.held("o_op"), v_p, stats.held("x_op"), rounding_threshold)[2]',
           't_in = cut_edges(stats.held("o_op"), v_p, stats.held("x_op"), 0.0)[2]',
           ("test_robustness.py::TestMonteCarloBand::test_probes_are_priced_at_the_threshold_w_was",
            "test_cli.py::TestBandFlags::test_band_is_priced_at_the_observers_threshold")),
    Mutant("W adds T_in", "engine.py",
           "w=base_total + t_out - t_in,", "w=base_total + t_out + t_in,",
           ("test_acceptance.py::test_criterion_01_worked_example_regime_a",
            "test_engine.py::TestRegimeA::test_worked_example")),
    Mutant("scale_units leaves bases and values unscaled", "engine.py",
           "scaled[name] = kappa * value if cols is None", "scaled[name] = value if cols is None",
           ("test_acceptance.py::test_criterion_08_scaling_equivariance",
            "test_network.py::test_restrict_and_scale_units_array_by_array")),
    Mutant("Neumann stops at a residual 1000 times eps", "engine.py",
           "residual < eps", "residual <= eps * 1e3",
           ("test_engine.py::TestEstimation::test_neumann_matches_the_loop_that_formed_i_minus_o_pp",
            "test_engine.py::TestAutoMethod::test_neumann_converges_on_rings")),
    Mutant("Option A misses a tie at tau", "control.py",
           "major = held.vals >= tau", "major = held.vals > tau",
           ("test_control.py::TestOptionA::test_matches_dense_boolean_powers",)),
    Mutant("Option A chains one step short", "control.py",
           "for _ in range(2, (depth or 1) + 1):", "for _ in range(3, (depth or 1) + 1):",
           ("test_control.py::TestOptionA::test_matches_dense_boolean_powers",)),
    Mutant("Option B drops the dispersed holder", "control.py",
           "residual = np.maximum(0.0, 1.0 - held.col_sums())", "residual = np.zeros(held.n)",
           ("test_control.py::TestOptionB::test_matches_the_dense_formulas_bit_for_bit",)),
    Mutant("Option C divides by alpha twice", "control.py",
           "omega /= alpha", "omega /= alpha * alpha",
           ("test_acceptance.py::test_criterion_11_control_rules",
            "test_control.py::TestOptionC::test_solves_the_attenuation_identity")),
    Mutant("a non-finite share is accepted", "control.py",
           "if not np.isfinite(held.vals).all():", "if not np.isfinite(held.vals[:0]).all():",
           ("test_control.py::TestOptionA::test_non_finite_share_refused",
            "test_control.py::TestOptionB::test_non_finite_share_refused",
            "test_control.py::TestOptionC::test_non_finite_share_refused",
            "test_cli.py::TestControlCommand::test_non_finite_share_is_compute_error")),
    Mutant("select_perimeter misses a tie at tau_p", "control.py",
           "(control.omega[inside].sum(axis=0) >= tau_p)",
           "(control.omega[inside].sum(axis=0) > tau_p)",
           ("test_control.py::TestSelectPerimeter::test_matches_one_candidate_at_a_time",)),
    Mutant("a hash mismatch is not refused", "report.py",
           "if actual != str(recorded):", "if actual != actual:",
           ("test_acceptance.py::test_criterion_16_package_integrity",
            "test_report.py::TestPackageFiles::test_edited_pov_or_evidence_is_a_hash_finding",
            "test_report.py::TestValidatePackage::test_corruption_reported_as_hash_finding",
            "test_report.py::TestPackageRoundTrip::test_single_byte_corruption_detected")),
    Mutant("edge files read their from and to columns swapped", "report.py",
           'zip(axes, ("from", "to"), columns):', 'zip(axes, ("from", "to"), columns[1::-1]):',
           ("test_acceptance.py::test_criterion_16_package_integrity",
            "test_report.py::TestPackageFiles::test_edge_files_load_the_held_edges_written")),
    Mutant("a re-hashed non-finite cell is priced", "report.py",
           "non_finite = next(self._non_finite_cells(), None)", "non_finite = None",
           ("test_cli.py::TestEditedPackages::test_any_edit_keeps_the_exit_code_contract",)),
    Mutant("a non-finite base is accepted", "engine.py",
           "finite = np.isfinite(self.b_p)", "finite = np.isfinite(self.b_p) | True",
           ("test_engine.py::TestRegimeA::test_a_non_finite_base_is_refused_naming_its_nodes",)),
    Mutant("clearing specs are scattered into dense classes", "cli.py",
           "held, _ = _HeldEdges.from_entries((len(nodes), len(nodes)), rows, cols, amounts)",
           "held = np.zeros((len(nodes), len(nodes)))\n        held[rows, cols] = amounts",
           ("test_cli.py::TestClearingCommand::test_a_sparse_spec_is_cleared_without_a_dense_class",)),
    Mutant("a refusal names every id", "errors.py",
           "if len(ids) <= 5:", "if len(ids) <= 5000:",
           ("test_engine.py::TestDiagnostics::test_a_refusal_names_the_first_of_many_missing_ids",
            "test_clearing.py::TestNetBoundaryFlows::test_a_refusal_names_the_first_of_many_unknown_ids",
            "test_control.py::TestSelectPerimeter::test_a_refusal_names_five_unknown_seeds_and_counts_six",
            "test_report.py::TestCsvFiles::test_a_refusal_names_the_first_of_many_repeated_ids",
            "test_cli.py::TestClearingCommand::"
            "test_a_refusal_names_the_first_of_many_nodes_without_resources")),
)

# Imports cbv, refuses any but the copy, then runs pytest on the arguments.
CHILD = """\
import pathlib, sys
import cbv
if pathlib.Path(sys.argv[1]).resolve() not in pathlib.Path(cbv.__file__).resolve().parents:
    print(f"the tests import {cbv.__file__}, not the copy in {sys.argv[1]}")
    sys.exit(64)
import pytest
sys.exit(pytest.main(sys.argv[2:]))
"""


def occurrences(mutant: Mutant) -> int:
    return (REPO / "src" / "cbv" / mutant.file).read_text(encoding="utf-8").count(mutant.old)


def run_tests(tests, mutant: Mutant | None = None) -> tuple[int, list[str], str]:
    """(pytest's exit status, the failed node ids, its output) for `tests`
    run against a fresh copy of src/, with `mutant` applied if given."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(REPO / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        if mutant is not None:
            path = src / "cbv" / mutant.file
            path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new),
                            encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(src), "-q", "-rf", "-p", "no:cacheprovider",
             "--hypothesis-profile=mutants", *(f"tests/{test}" for test in tests)],
            cwd=REPO, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"})
    failed = re.findall(r"^FAILED tests/(\S+)", proc.stdout, re.MULTILINE)
    return proc.returncode, failed, proc.stdout + proc.stderr


def main() -> int:
    moved = [f"{m.name}: its old text occurs {occurrences(m)} times in src/cbv/{m.file}"
             for m in MUTANTS if occurrences(m) != 1]
    if moved:
        print(*moved, sep="\n")
        return 1
    status, _, output = run_tests(sorted({test for m in MUTANTS for test in m.tests}))
    if status != 0:
        print(output, "the named tests do not all pass on the unchanged copy", sep="\n")
        return 1
    missed = 0
    for m in MUTANTS:
        status, failed, output = run_tests(m.tests, m)
        passed = [test for test in m.tests
                  if not any(f == test or f.startswith(test + "[") for f in failed)]
        if status == 1 and not passed:
            print(f"caught      {m.name}")
            continue
        missed += 1
        print(output, f"NOT CAUGHT  {m.name}: exit status {status}; passed: {passed}", sep="\n")
    print(f"{len(MUTANTS) - missed} of {len(MUTANTS)} faults caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
