"""The three benchmark workloads: set-up, one measured repetition, and gates.

Each workload keeps its map, grid and seed point fixed; the benchmark seed
reaches the program only as the CLI's ``--seed`` or as generated query
points. The correctness thresholds are the README's acceptance criteria and
do not depend on the seed. Why each workload exists is in README.md.

A workload is three steps, run by ``worker.py``:

* ``setup()`` builds what the measured phase needs and returns it as the
  state. Its time, from the start of the process with the import of
  torusdyn, is a ``setup_s`` sample. The CLI workloads have nothing to
  set up: ``cli.main`` builds its map and skew itself, inside the measured
  phase, as a user's run does, so their ``setup_s`` is the import.
* ``run(state, seed, outdir)`` is one repetition of the measured phase;
* ``verify(state, raw, outdir)`` gates the outputs and hashes them; it runs
  after tracing is removed so it adds no spans.

Two class attributes tell ``run.py`` how to spread a run over processes:

* ``split``: the number of processes that each pay the full set-up and
  share the measured time; ``None`` runs one repetition per fresh process
  until the measured time is used, as a user runs the CLI.
* ``setup_block``: set-up-only processes started before each measuring
  process and after the last, so cheap set-ups get many interleaved
  samples; 0 where a set-up is too long to repeat more than ``split``
  times.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

RIGID_MAP = '{"kind":"rigid","offset":[0.6180339887,0.4142135624]}'
ALPHA = 0.6180339887
BETA = 0.4142135624


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def tree_hashes(outdir):
    """sha256 of every file under a CLI output directory, by relative path."""
    out = {}
    for base, _, files in os.walk(outdir):
        for f in files:
            path = os.path.join(base, f)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, outdir)] = _sha(fh.read())
    return dict(sorted(out.items()))


def _check(name, ok, detail):
    return (name, bool(ok), detail)


class CliWorkload:
    """A workload run in-process through ``cli.main``; nothing to set up."""

    split = None
    setup_block = 4

    def setup(self):
        return {}


class FactorRigid(CliWorkload):
    """``torusdyn factor`` on the rigid map at 128x128x256, in-process."""

    name = "factor-rigid"

    def run(self, state, seed, outdir):
        from torusdyn import cli

        return cli.main(["factor", "--map", RIGID_MAP, "--rho", repr(BETA),
                         "--seed-point", "0.5,0", "--resolution", "128,128,256",
                         "--seed", str(seed), "--out", outdir])

    def verify(self, state, code, outdir):
        checks = [_check("exit_code", code == 0, f"exit code {code}")]
        hashes = tree_hashes(outdir)
        region = os.path.join(outdir, "region.json")
        defects = os.path.join(outdir, "defects.json")
        if code != 0 or not os.path.exists(defects):
            return checks + [_check("outputs_present", False, "no defects.json")], hashes
        with open(defects) as fh:
            d = json.load(fh)["result"]
        with open(region) as fh:
            r = json.load(fh)["result"]
        hashes["region_mask"] = _sha(json.dumps(
            [r["resolution"], r["window"], r["rle"]]).encode())
        cells = d["semiconjugacy_defect_max"] / d["cell_height"]
        checks += [
            _check("status", d["status"] != "window-exhausted",
                   f"status {d['status']}"),
            _check("semiconjugacy_defect", cells <= 2.0,
                   f"{cells:.3f} cells (limit 2)"),
            _check("ordering_violations", d["ordering_violations"] == 0,
                   f"{d['ordering_violations']} violations"),
        ]
        return checks, hashes


class Heights:
    """Dense height queries on the suspension-3.1 region at 128x128x256."""

    name = "heights"
    queries = 256
    ladder = 128
    # the region build takes 20 to 30 s: two builds per run, each in the
    # process that then measures half of the repetitions
    split = 2
    setup_block = 0

    def setup(self):
        from torusdyn.circle import CircleLift
        from torusdyn.factor import build_tau
        from torusdyn.gallery import suspension_map
        from torusdyn.rotation import deviation_profile
        from torusdyn.skew import build_centralized

        susp = suspension_map(CircleLift.rigid(ALPHA), CircleLift.rigid(BETA))
        rho = susp.rho_base * susp.rho_fiber
        prof = deviation_profile(susp.torus_map, (0, 1), rho, n_max=10_000,
                                 samples=64, seed=0)
        skew = build_centralized(susp.torus_map, rho, c_est=prof.c_est)
        return {"tau": build_tau(skew, (0.5, 0.0), ball_radius=0.15, n_t=128,
                                 n_x=128, n_y=256, max_iters=240, seed=0)}

    def run(self, state, seed, outdir):
        from torusdyn.factor import (continuum_Cs, evaluate_h,
                                     project_to_torus_factor,
                                     verify_equivariance)

        tau = state["tau"]
        # every repetition starts from an empty fill cache, as a fresh
        # region would
        tau._fills.clear()
        geom = tau.geom
        y_c = 0.5 * (geom.y_min + geom.y_max)
        rng = np.random.default_rng(seed)
        pts = np.column_stack([rng.uniform(0.0, 1.0, self.queries),
                               y_c + rng.uniform(-0.75, 0.75, self.queries)])
        fm = project_to_torus_factor(tau, grid=(128, 64))
        eq = verify_equivariance(tau, samples=128, s_ladder=self.ladder,
                                 seed=seed)
        cs = [continuum_Cs(tau, j / self.ladder) for j in range(self.ladder)]
        hv = [evaluate_h(tau, (float(x), float(y))) for x, y in pts]
        return {"fm": fm, "eq": eq, "cs": cs, "h": hv}

    def verify(self, state, raw, outdir):
        tau, fm, eq, hv = state["tau"], raw["fm"], raw["eq"], raw["h"]
        cell = tau.geom.h_y
        checks = [_check(f"query_{i}_ordering", h.ordering_ok,
                         f"height {h.value!r}") for i, h in enumerate(hv)]
        checks += [
            _check("unit_translate_defect", eq.unit_translate_defect <= eq.tol,
                   f"{eq.unit_translate_defect!r} (tol {eq.tol!r})"),
            _check("map_defect", eq.map_defect <= 4.0 * cell,
                   f"{eq.map_defect / cell:.3f} cells (limit 4)"),
            _check("ladder_ordering", eq.ordering_violations == 0,
                   f"{eq.ordering_violations}/{eq.pairs_checked} violations"),
        ]
        occ = tau.mask.occ
        hashes = {
            "region_mask": _sha(repr(occ.shape).encode() + np.packbits(occ).tobytes()),
            "factor_values": _sha(fm.values.tobytes()),
            "equivariance": _sha(repr((eq.unit_translate_defect, eq.map_defect,
                                       eq.ordering_violations)).encode()),
            "continua": _sha(b"".join(c.points.tobytes() for c in raw["cs"])),
            "queries": _sha(np.array([h.value for h in hv]).tobytes()),
        }
        return checks, hashes


class Orbits(CliWorkload):
    """``torusdyn gallery fully-essential --nmax 10000``, in-process."""

    name = "orbits"

    def run(self, state, seed, outdir):
        from torusdyn import cli

        return cli.main(["gallery", "fully-essential", "--nmax", "10000",
                         "--seed", str(seed), "--out", outdir])

    def verify(self, state, code, outdir):
        checks = [_check("exit_code", code == 0, f"exit code {code}")]
        hashes = tree_hashes(outdir)
        path = os.path.join(outdir, "gallery_fully-essential.json")
        if code != 0 or not os.path.exists(path):
            return checks + [_check("outputs_present", False, "no report")], hashes
        with open(path) as fh:
            g = json.load(fh)["result"]
        checks += [
            _check("deviation_verdict", g["deviation_verdict"] == "bounded",
                   f"verdict {g['deviation_verdict']}"),
            _check("obstruction_evidence", g["obstruction_evidence"] is True,
                   f"evidence {g['obstruction_evidence']}"),
            _check("forward_proximality", g["forward_min"] < 1e-2,
                   f"forward minimum {g['forward_min']!r}"),
            _check("backward_proximality", g["backward_min"] < 1e-2,
                   f"backward minimum {g['backward_min']!r}"),
            _check("wandering_block", not g["recurrence_times_in_block"],
                   f"{len(g['recurrence_times_in_block'])} recurrence times"),
        ]
        return checks, hashes


WORKLOADS = {w.name: w for w in (FactorRigid(), Heights(), Orbits())}
