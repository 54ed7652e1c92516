"""Mutation registry: edits of the source that named tests must catch.

Each entry is one edit of one file: an exact ``old`` text, which occurs
there once, and the ``new`` text that replaces it, with the test ids that
must fail once it is made and a time limit for running them. Run

    python tests/mutants.py [name ...]

to check every entry, or the named ones. For each entry the runner copies
the tree to a temporary directory, applies the edit to the copy, runs the
entry's tests there (Hypothesis seeded, so a run repeats) and prints
``killed``, ``survived`` or ``error`` with the seconds taken. A test
failure kills the mutant. A collection error is an ``error``: the named
tests did not run, so they did not catch the edit. A run that reaches the
time limit kills it only when the entry says ``timeout_kills``, for an edit
that makes a loop run forever. The runner exits 1 unless every entry is
killed.

``tests/test_mutants.py`` checks in the Tier-1 suite that each ``old`` text
occurs exactly once and that each test id is collected. A change that
catches a new kind of fault adds its mutant here.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parents[1]
# left out of the copy: version control, caches and benchmark outputs
_SKIP = {".git", ".hypothesis", ".pytest_cache", "__pycache__"}
_SKIP_BENCH = {"out", "records"}


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # from the repository root
    old: str
    new: str
    tests: tuple  # pytest ids, from the repository root
    seconds: float  # time limit of the test run
    timeout_kills: bool = False


MUTANTS = (
    Mutant("padded-cell-no-guard-row", "src/torusdyn/skew.py",
           "    col += 1.0\n", "    col += 0.0\n",
           ("tests/test_skew.py::test_invariance_defect_exact_counts",), 120),
    Mutant("ladder-subset-not-complemented", "src/torusdyn/factor.py",
           "subset = ~(f & ~later).any(axis=1)", "subset = (f & ~later).any(axis=1)",
           ("tests/test_factor.py::test_packed_ladder_check_matches_boolean",), 120),
    # the bisection steps have no key groups now: a point reads the band
    # stored before its own
    Mutant("height-group-boundary-plus-one", "src/torusdyn/factor.py",
           "row += self.offset[b]\n", "row += self.offset[b - 1]\n",
           ("tests/test_factor.py::test_sliced_groups_match_split_groups",), 120),
    Mutant("table-read-row-clamp-past-band", "src/torusdyn/factor.py",
           "np.clip(row, 0, height - 1, out=row)", "np.clip(row, 0, height, out=row)",
           ("tests/test_factor.py::test_table_read_matches_per_group_reference",), 120),
    Mutant("key-table-interior-range-one-past", "src/torusdyn/factor.py",
           "n_y + 1 - f:2 * n_y - 1 - l", "n_y + 1 - f:2 * n_y - l",
           ("tests/test_factor.py::test_key_table_enters_each_band_under_its_keys",),
           120),
    Mutant("clipped-keys-deduped-by-t-cell", "src/torusdyn/factor.py",
           "np.where(interior, 1 - f, shift)", "np.where(interior, 1 - f, n_y)",
           ("tests/test_factor.py::test_batched_bands_match_one_key_labels",), 120),
    Mutant("evaluate-h-no-moved-stop", "src/torusdyn/factor.py",
           "bisect = b - a > tol and moved", "bisect = b - a > tol",
           ("tests/test_factor.py::test_heights_end_below_float_spacing",), 60,
           timeout_kills=True),
    Mutant("float-shift-half-up", "src/torusdyn/factor.py",
           "(round(shift) if isinstance(shift, float)",
           "(int(np.floor(shift + 0.5)) if isinstance(shift, float)",
           ("tests/test_factor.py::test_evaluate_h_matches_heights",), 120),
    Mutant("denjoy-wind-zero", "src/torusdyn/circle.py",
           "wind = np.concatenate([[0], np.cumsum(vals[1:] <= vals[:-1])])",
           "wind = np.zeros(vals.size)",
           ("tests/test_circle.py::test_build_denjoy_matches_per_gap_reference",), 120),
    Mutant("last-fitting-gap", "src/torusdyn/gallery.py",
           "choice = int(np.argmax(fits))",
           "choice = int(fits.size - 1 - np.argmax(fits[::-1]))",
           ("tests/test_gallery.py::test_fully_essential_takes_the_first_fitting_gap",),
           120),
    Mutant("end-cells-whole-dilation", "src/torusdyn/skew.py",
           "dil & _runs(dil)[2][:, None], inverse, rho)", "dil, inverse, rho)",
           ("tests/test_skew.py::test_invariance_end_cells_match_the_full_check",), 120),
    Mutant("end-cells-for-every-map", "src/torusdyn/skew.py",
           "solid & skew.spec.column_wise", "solid",
           ("tests/test_skew.py::test_invariance_defect_matches_per_sample_fibers",), 120),
    Mutant("stacked-heights-split-by-point", "src/torusdyn/factor.py",
           "tol=tol)[0].reshape(3, -1)", "tol=tol)[0].reshape(-1, 3).T",
           ("tests/test_factor.py::test_reports_match_separate_height_calls",), 120),
    Mutant("envelope-merge-drops-backward", "src/torusdyn/skew.py",
           "_unfold_buckets(np.minimum(low, b_low), np.minimum",
           "_unfold_buckets(low, np.minimum",
           ("tests/test_skew.py::test_refine_envelopes_matches_dense_update",), 120),
    Mutant("walk-drops-backward-records", "src/torusdyn/rotation.py",
           "                        p.records[1] = record\n",
           "                        pass\n",
           ("tests/test_orbit_driver.py::test_walk_schedules_agree",), 120),
    Mutant("block-driver-last-block-short", "src/torusdyn/util.py",
           "block = buffer[:n + 1 - n0]", "block = buffer[:n - n0]",
           ("tests/test_orbit_driver.py::test_block_edges_match_reference_loops",),
           120),
    Mutant("envelope-walk-drops-seed", "src/torusdyn/skew.py",
           "itertools.chain([(0, seed[None])], orbit)", "itertools.chain([], orbit)",
           ("tests/test_skew.py::test_refine_envelopes_matches_dense_update",), 120),
    Mutant("fork-floor-dropped", "src/torusdyn/util.py",
           "return (work >= _FORK_WORK and hasattr(os, \"fork\")",
           "return (hasattr(os, \"fork\")",
           ("tests/test_util.py::test_short_walks_stay_in_this_process",), 120),
    # a continuum read on its band as if y wrapped like x: the top guard row
    # of a separating fill meets the filled bottom one
    Mutant("continuum-band-wraps-in-y", "src/torusdyn/factor.py",
           "_or_shifted(grown, rows, 1, wrap=False)", "_or_shifted(grown, rows, 1, wrap=True)",
           ("tests/test_factor.py::test_continuum_is_the_fill_boundary",), 120),
    # the region build then starts from no cell, and the seed's component
    # is empty
    Mutant("default-no-seed-raster", "src/torusdyn/skew.py",
           "    raster_block(pts, 0.0, 0.0, False)  # n = 0 in both directions\n",
           "    pass  # n = 0 in both directions\n",
           ("tests/test_skew.py::test_default_rigid_build_is_the_saturated_build",),
           120),
    # the band of the extension starts past a row whose center is the least
    # lower envelope, which the test draws
    Mutant("extend-wrong-side", "src/torusdyn/skew.py",
           'a = y_centers.searchsorted(env_min, "left").min()',
           'a = y_centers.searchsorted(env_min, "right").min()',
           ("tests/test_skew.py::test_band_stages_match_full_grid_references",),
           120),
    # the seed keeps the bottom guard row: a cell clipped into it stands for
    # the last row of the line before
    Mutant("seed-keeps-guard-row", "src/torusdyn/skew.py",
           "seed = cells[(yy >= 0) & (yy < n_y)]", "seed = cells[(yy >= -1) & (yy < n_y)]",
           ("tests/test_skew.py::test_saturate_matches_allocating_reference",), 120),
    # no run-stop check: a seed in a gap joins the run before it
    Mutant("seed-in-gap-joins-run", "src/torusdyn/skew.py",
           "    i = i[i % 2 == 1]\n", "    i = i[i > 0] - 1\n",
           ("tests/test_skew.py::test_run_labels_match_ndimage",), 120),
    Mutant("y-cell-unclipped", "src/torusdyn/skew.py",
           "        _guard_rows(h, self)\n",
           "        h = np.floor((h - self.y_min) / self.h_y)\n",
           ("tests/test_factor.py::test_far_heights_stay_on_their_side_of_the_window",),
           120),
)


def _ignore(directory, names):
    skip = _SKIP | (_SKIP_BENCH if pathlib.Path(directory) == ROOT / "perfbench" else set())
    return [n for n in names if n in skip or n.endswith(".egg-info")]


def run(mutant, workdir):
    """Apply one mutant to a copy of the tree under workdir and run its
    tests: ``(status, seconds, summary)``, status one of killed, survived or
    error (the tests could not be selected, their module
    failed to import, or the run broke down), summary
    pytest's last line."""
    tree = pathlib.Path(workdir) / mutant.name
    shutil.copytree(ROOT, tree, ignore=_ignore)
    target = tree / mutant.path
    text = target.read_text()
    if text.count(mutant.old) != 1:
        return "error", 0.0, f"old text found {text.count(mutant.old)} times"
    target.write_text(text.replace(mutant.old, mutant.new))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "-o", "addopts=", "--hypothesis-seed=0", *mutant.tests]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True,
                            start_new_session=True)
    try:
        out = proc.communicate(timeout=mutant.seconds)[0]
        code = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out = proc.communicate()[0]
        code = None
    seconds = time.perf_counter() - start
    shutil.rmtree(tree)
    if code is None:
        status = "killed" if mutant.timeout_kills else "survived"
        return status, seconds, f"timed out after {mutant.seconds} s"
    summary = (out.strip().splitlines() or [""])[-1].strip("= ")
    # a module that does not import leaves its named tests unrun, whatever
    # the exit code (2, or 4 when a named test is then not found)
    if "ERROR collecting" in out:
        return "error", seconds, summary
    # 1: a test failed; 2: the run was interrupted
    if code in (1, 2):
        return "killed", seconds, summary
    return ("survived" if code == 0 else "error"), seconds, summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="entries to run (default: all)")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[n] for n in args.names] or list(MUTANTS)
    total = time.perf_counter()
    statuses = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as workdir:
        for m in chosen:
            status, seconds, summary = run(m, workdir)
            statuses.append(status)
            print(f"{status:8s} {seconds:6.1f} s  {m.name}: {summary}", flush=True)
    print(f"{statuses.count('killed')}/{len(chosen)} killed in "
          f"{time.perf_counter() - total:.1f} s")
    return 0 if statuses.count("killed") == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main())
