"""A catalogue of named mutants of raidrsim, each with the tests that must kill it.

A mutant replaces one exact text in one file with another.  For each
mutant the script copies src/ and tests/ to a temporary directory, applies
the mutant there and runs only its named tests, with a fixed Hypothesis
seed and the `mutants` Hypothesis profile of tests/conftest.py, which
does not shrink a failing example.  The mutant is killed when they fail.

    python scripts/mutants.py            # every mutant
    python scripts/mutants.py NAME ...   # the named ones
    python scripts/mutants.py --list

It exits 1 if a mutant survives, if its old text does not occur exactly
once, or if its tests cannot be run; 0 if every mutant is killed.  A check
added to the tests should come with a mutant here that it kills.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root, under one of COPIED
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids, relative to the repository root, each may name one parametrization


ACROSS_CHECKPOINT = "tests/test_simulate.py::test_vrt_engine_matches_oracle_across_checkpoint"
PROFILE_EXACT_UP_TO_THE_BIN = (
    "tests/test_profiler.py::TestCampaignOnlyWhereTheBinDependsOnIt::test_profile_with_bins_is_exact_up_to_the_bin"
)
MEMBER_FORMS_ROUND_TRIP = "tests/test_raidr.py::test_member_forms_round_trip_in_the_smaller_form"
MEMBER_FORMS_BUILD_THE_FILTERS = "tests/test_raidr.py::test_member_forms_build_the_filters_of_a_flat_member_list"

MUTANTS = (
    Mutant(
        "bin-map-later-filter-wins",
        "src/raidrsim/raidr.py",
        "        for b in range(len(claims) - 1, -1, -1):\n            out[claims[b]] = b\n",
        "        for b in range(len(claims)):\n            out[claims[b]] = b\n",
        ("tests/test_raidr.py::TestQueryOrder::test_first_claims_matches_scalar",),
    ),
    Mutant(
        "queried-counts-every-claim",
        "src/raidrsim/simulate.py",
        "queried[b] += np.count_nonzero(bin_of[rows] == b)",
        "queried[b] += rows.size",
        ("tests/test_simulate.py::TestAgainstReferenceOracle::test_rows_claimed_by_two_filters_exact",),
    ),
    Mutant(
        "plain-members-keep-other-bins",
        "src/raidrsim/raidr.py",
        "in_bin[block.at[idx != b]] = False",
        "in_bin[block.at[idx == b]] = True",
        ("tests/test_raidr.py::test_sparse_blocks_build_the_filters_of_their_dense_form",),
    ),
    Mutant(
        "toggles-from-weak-rows",
        "src/raidrsim/retention.py",
        "RetentionGroundTruth(device, vrt, dpd, seed, base, toggle[at])",
        "RetentionGroundTruth(device, vrt, dpd, seed, base, own[at])",
        ("tests/test_retention.py::TestTrueMinRetention::test_own_rows_are_the_weak_and_vrt_rows",),
    ),
    Mutant(
        "mod-by-float-division",
        "src/raidrsim/bloom.py",
        "    r = x // m\n",
        "    r = (x / m).astype(np.uint64)\n",
        ("tests/test_bloom_properties.py::test_remainder_matches_mod",
         "tests/test_bloom_properties.py::test_remainder_matches_mod_for_random_m"),
    ),
    # a uint64 word array is then not copied, and gains _GAMMA in place
    Mutant(
        "hash-caller-array-in-place",
        "src/raidrsim/rng.py",
        "word = word.astype(np.uint64) + _V_GAMMA",
        "word = word.astype(np.uint64, copy=False)\n        word += _V_GAMMA",
        ("tests/test_rng.py::test_kernels_leave_their_inputs_unchanged",),
    ),
    # a column of windows then hashes without the fold's constant
    Mutant(
        "hash-array-word-without-gamma",
        "src/raidrsim/rng.py",
        "word = word.astype(np.uint64) + _V_GAMMA",
        "word = word.astype(np.uint64)",
        ("tests/test_rng.py::test_extend_hash_over_a_column_of_windows",),
    ),
    # np.uint64 + int64 then resolves to float64, which rounds large words and cannot be mixed
    Mutant(
        "hash-add-without-uint64-dtype",
        "src/raidrsim/rng.py",
        "dtype=np.uint64, casting=\"unsafe\")",
        "casting=\"unsafe\")",
        ("tests/test_rng.py::test_vec_matches_scalar_wherever_the_array_word_sits[first-int64]",),
    ),
    # a query then answers from the bits the filter had before the insert
    Mutant(
        "bloom-table-kept-across-inserts",
        "src/raidrsim/bloom.py",
        "        self._table = None\n        for i in",
        "        for i in",
        ("tests/test_bloom.py::TestInsertContains::test_query_between_inserts_sees_the_later_keys[590]",),
    ),
    # every probe of a key then sets or tests the same bit: a filter of k
    # probes behaves as one of a single probe
    Mutant(
        "bloom-probes-hash-one-word",
        "src/raidrsim/bloom.py",
        "hash_words_vec(seed, i + 1, keys)",
        "hash_words_vec(seed, 1, keys)",
        ("tests/test_bloom.py::TestPlannedFpr::test_raidr_filter_claims_no_non_member",),
    ),
    # an empty bin's filter then hashes every row it is asked about
    Mutant(
        "empty-bin-queried",
        "src/raidrsim/raidr.py",
        "filt.claimed(rows) if n else",
        "filt.claimed(rows) if True else",
        ("tests/test_raidr.py::TestBuildBins::test_empty_bins_hash_nothing",),
    ),
    Mutant(
        "bloom-table-big-endian",
        "src/raidrsim/bloom.py",
        'bitorder="little").view(bool)',
        'bitorder="big").view(bool)',
        ("tests/test_bloom.py::TestInsertContains::test_claimed_matches_scalar",
         "tests/test_bloom_properties.py::test_contains_many_matches_scalar_contains"),
    ),
    Mutant(
        "seen-carry-dropped",
        "src/raidrsim/simulate.py",
        "low, seen = lows[-1], seen.copy()",
        "low, seen = lows[-1], np.zeros_like(seen)",
        ("tests/test_simulate.py::test_vrt_tiles_are_exact_at_their_boundaries",),
    ),
    Mutant(
        "window-0-stepped",
        "src/raidrsim/retention.py",
        "stepped = windows[windows > 0]",
        "stepped = windows[windows >= 0]",
        (ACROSS_CHECKPOINT,),
    ),
    Mutant(
        "tile-runs-past-stop",
        "src/raidrsim/retention.py",
        "windows = np.arange(w0, min(w0 + tile, stop))",
        "windows = np.arange(w0, w0 + tile)",
        ("tests/test_retention.py::test_vrt_tiles_are_the_scalar_chain_in_bounded_tiles",),
    ),
    Mutant(
        "campaign-stops-a-window-early",
        "src/raidrsim/profiler.py",
        "vrt, 1, last + 1)",
        "vrt, 1, last)",
        ("tests/test_profiler.py::TestMeasuredMode::test_campaign_stops_at_the_last_sampled_window",),
    ),
    Mutant(
        "stay-taken-from-p-high-to-low",
        "src/raidrsim/retention.py",
        "out = k >= rng.uniform_threshold(vrt.p_low_to_high)  # stay",
        "out = k >= rng.uniform_threshold(vrt.p_high_to_low)  # stay",
        (ACROSS_CHECKPOINT,),
    ),
    Mutant(
        "threshold-within-1e-9-of-a-multiple",
        "src/raidrsim/raidr.py",
        "if m < 1 or m * base_ms != iv:",
        "if m < 1 or abs(m * base_ms - iv) > 1e-9 * iv:",
        ("tests/test_cli.py::test_threshold_a_hair_under_a_multiple_exits_2",),
    ),
    Mutant(
        "adapter-swaps-budget-and-bins",
        "src/raidrsim/simulate.py",
        "def run(sim_cfg, device, dist, vrt, dpd, profiler_cfg, bin_cfg, bloom_budget=1e-3) -> SimReport:",
        "def run(sim_cfg, device, dist, vrt, dpd, profiler_cfg, bloom_budget, bin_cfg=1e-3) -> SimReport:",
        ("tests/test_cli.py::test_library_report_equals_cli_artifact",),
    ),
    Mutant(
        "checker-skips-oracle-safety",
        "src/raidrsim/simulate.py",
        "if spec.profiler.mode == MODE_ORACLE and report.retention_failures:",
        "if False:",
        ("tests/test_simulate.py::TestInvariants::test_invariant_checker_flags_oracle_failures",),
    ),
    # an oracle profile then misses the low state, and the row-by-row
    # safety inclusion of the oracle check sees its rows fail
    Mutant(
        "min-possible-ignores-low-factor",
        "src/raidrsim/retention.py",
        "values[self.toggles] *= self.vrt.low_factor",
        "values[self.toggles] *= 1.0",
        (ACROSS_CHECKPOINT,),
    ),
    # a block's campaign then steps its rows on another block's streams
    Mutant(
        "campaign-keyed-by-block-offsets",
        "src/raidrsim/profiler.py",
        "rows + gt.start, cfg",
        "rows, cfg",
        ("tests/test_simulate.py::test_vrt_tiles_are_exact_at_their_boundaries[64]",),
    ),
    # a VRT row whose two values share a bin but whose low one is under the
    # base period then keeps its high value
    Mutant(
        "campaign-ignores-base-period",
        "src/raidrsim/profiler.py",
        " | (seen < gt.device.trefw_ms)",
        "",
        (PROFILE_EXACT_UP_TO_THE_BIN,),
    ),
    # the two values then miss the DPD coverage of a row whose worst pattern was tested
    Mutant(
        "campaign-decides-before-coverage",
        "src/raidrsim/profiler.py",
        "high = measured[toggling]",
        "high = gt.base.values[gt.toggles]",
        (PROFILE_EXACT_UP_TO_THE_BIN,),
    ),
    # the profile keeps its bins, but the campaign walks every VRT row again
    Mutant(
        "campaign-walks-every-toggling-row",
        "src/raidrsim/profiler.py",
        "        toggling, rows = toggling[asked], rows[asked]\n",
        "",
        ("tests/test_profiler.py::TestCampaignOnlyWhereTheBinDependsOnIt::"
         "test_campaign_walks_exactly_the_straddling_rows",),
    ),
    Mutant(
        "pattern-seed-is-the-master-seed",
        "src/raidrsim/profiler.py",
        "seed = rng.hash_words(gt.seed, rng.TAG_PROFILER_SEED)",
        "seed = gt.seed",
        ("tests/test_golden.py::test_artifact_digests",),
    ),
    Mutant(
        "seen-never-reset-at-a-refresh",
        "src/raidrsim/simulate.py",
        "failed = np.take(phase != 0, self._v_key, axis=1)",
        "failed = np.take(phase >= 0, self._v_key, axis=1)",
        ("tests/test_model_conformance.py::test_engine_vrt_failures_match_the_chain",),
    ),
    Mutant(
        "campaign-steps-on-the-engine-stream",
        "src/raidrsim/rng.py",
        "TAG_PROFILE_VRT_STEP = 0x07",
        "TAG_PROFILE_VRT_STEP = TAG_VRT_STEP",
        ("tests/test_model_conformance.py::test_engine_and_campaign_toggle_streams_are_uncorrelated",),
    ),
    Mutant(
        "plain-static-failures-dropped",
        "src/raidrsim/simulate.py",
        "self._static_failures = static_failures + int(plain_queried @ fails)",
        "self._static_failures = static_failures",
        ("tests/test_simulate.py::test_plain_rows_that_can_fail_match_oracle",),
    ),
    Mutant(
        "plain-jmin-off-by-one",
        "src/raidrsim/simulate.py",
        "plain_jmin = int(_first_failing_window(true_min.plain, trefw_ms))",
        "plain_jmin = int(_first_failing_window(true_min.plain, trefw_ms)) - 1",
        ("tests/test_simulate.py::test_plain_rows_that_can_fail_match_oracle",),
    ),
    # a retention of k base periods then fails k windows past a refresh
    # wherever (k * trefw_ms) / trefw_ms rounds below k
    Mutant(
        "jmin-floored-quotient",
        "src/raidrsim/simulate.py",
        "    j -= (j - 1) * trefw_ms > retention_ms\n    j += j * trefw_ms <= retention_ms\n",
        "",
        ("tests/test_cli.py::test_retention_on_a_refresh_boundary_never_fails",
         "tests/test_simulate.py::test_first_failing_window_is_the_first_elapsed_time_past_the_retention",
         "tests/test_simulate.py::test_sparse_rows_match_oracle"),
    ),
    Mutant(
        "first-plain-returns-0",
        "src/raidrsim/retention.py",
        "return int(gaps[0]) if gaps.size else self.at.size",
        "return 0",
        ("tests/test_retention.py::test_sparse_rows_against_their_dense_form",),
    ),
    Mutant(
        "vrt-rows-not-moved-to-jmin-cap",
        "src/raidrsim/simulate.py",
        "                jmin[gt.toggles] = jmin_cap\n",
        "",
        ("tests/test_simulate.py::TestAgainstReferenceOracle::test_noisy_configs_exact",),
    ),
    Mutant(
        "coverage-ignores-the-under-base-case",
        "src/raidrsim/profiler.py",
        " or covered < gt.device.trefw_ms:",
        ":",
        ("tests/test_simulate.py::test_plain_rows_below_the_base_period_are_reported_as_the_oracle_reports",),
    ),
    Mutant(
        "coverage-branch-keeps-the-vrt-positions",
        "src/raidrsim/profiler.py",
        "            toggling = own[toggling]\n",
        "",
        ("tests/test_profiler.py::TestMeasuredMode::test_full_coverage_with_visited_low_state_equals_oracle",),
    ),
    # each sweep point then runs on a device of its own, as sweep did before
    Mutant(
        "sweep-point-reseeded",
        "src/raidrsim/cli.py",
        "specs = [spec_from_flat({**flat, args.axis: v}) for v in values]",
        "specs = [spec_from_flat({**flat, args.axis: v}).with_seed(i) for i, v in enumerate(values)]",
        ("tests/test_cli.py::TestSweepCommand::test_each_point_is_the_simulate_run_of_its_value",),
    ),
    Mutant(
        "sweep-skips-invariants",
        "src/raidrsim/cli.py",
        "for v in check_report_invariants(r, spec)]",
        "for v in []]",
        ("tests/test_cli.py::TestSweepCommand::test_a_point_that_breaks_an_invariant_exits_3_after_every_artifact",),
    ),
    # a bitmap of a block's members then unpacks with its bytes' bits reversed
    Mutant(
        "member-bitmap-bitorder",
        "src/raidrsim/raidr.py",
        "return True, np.packbits(members)",
        'return True, np.packbits(members, bitorder="little")',
        (MEMBER_FORMS_ROUND_TRIP, MEMBER_FORMS_BUILD_THE_FILTERS),
    ),
    Mutant(
        "member-offsets-decoded-without-the-block-start",
        "src/raidrsim/raidr.py",
        "    rows += np.uint64(start)\n",
        "",
        (MEMBER_FORMS_ROUND_TRIP, MEMBER_FORMS_BUILD_THE_FILTERS),
    ),
    # the members of a block then reach the filter only where they fill a batch
    Mutant(
        "member-batches-drop-the-remainder",
        "src/raidrsim/raidr.py",
        "pending, held = [joined[cut:]], held - cut",
        "pending, held = [], 0",
        (MEMBER_FORMS_BUILD_THE_FILTERS,),
    ),
    # every block then keeps its members as offsets, 2 B per binned row
    Mutant(
        "members-always-offsets",
        "src/raidrsim/raidr.py",
        "if count * offset_type.itemsize <= -(-num_rows // 8):",
        "if True:",
        ("tests/test_simulate.py::test_engine_pass_memory_is_bounded",),
    ),
    # every process then maps OpenSSL's libcrypto
    Mutant(
        "sha256-from-hashlib",
        "src/raidrsim/experiment.py",
        "try:\n    from _sha2 import sha256  # Python 3.12+\nexcept ImportError:\n    try:\n"
        "        from _sha256 import sha256  # Python 3.10-3.11\n    except ImportError:\n"
        "        from hashlib import sha256\n",
        "from hashlib import sha256\n",
        ("tests/test_cli.py::test_cli_runs_load_no_openssl",),
    ),
    # a config file's repeated key is then read as its last value
    Mutant(
        "config-key-given-twice-kept",
        "src/raidrsim/experiment.py",
        "        if key in line_of:\n",
        "        if False:\n",
        ("tests/test_cli.py::test_key_given_twice_in_a_config_file_exits_2",),
    ),
)


def occurrences(mutant: Mutant, root: Path = ROOT) -> int:
    return (root / mutant.path).read_text().count(mutant.old)


def run_mutant(mutant: Mutant) -> str:
    """'killed', 'survived', or why the mutant's tests could not run."""
    if occurrences(mutant) != 1:
        return f"stale: the old text occurs {occurrences(mutant)} times in {mutant.path}"
    with tempfile.TemporaryDirectory(prefix="raidrsim-mutant-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            shutil.copytree(ROOT / name, work / name, ignore=shutil.ignore_patterns("__pycache__"))
        target = work / mutant.path
        target.write_text(target.read_text().replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--rootdir", str(work),
             "--hypothesis-seed=0", "--hypothesis-profile=mutants", *mutant.tests],
            cwd=work, env=env, capture_output=True, text=True,
        )
    # pytest exits 1 when a test fails; any other non-zero code means the
    # tests did not run as named
    if done.returncode == 1:
        return "killed"
    if done.returncode == 0:
        return "survived"
    return f"error: pytest exited {done.returncode}: {done.stdout.strip().splitlines()[-1:]}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    chosen = [by_name[n] for n in args.names] or list(MUTANTS)
    if args.list:
        for m in chosen:
            print(f"{m.name}  {m.path}  {' '.join(m.tests)}")
        return 0
    failed = 0
    for m in chosen:
        t0 = time.perf_counter()
        outcome = run_mutant(m)
        failed += outcome != "killed"
        print(f"{outcome:8s}  {m.name}  ({time.perf_counter() - t0:.1f} s)", flush=True)
    print(f"{len(chosen) - failed} of {len(chosen)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
