"""Command-line front end.

One subcommand per pipeline; long flags only. A JSON config file can supply
any flag set, with explicit flags taking precedence. Every output file
embeds the resolved configuration. Exit codes: 0 success, 1 usage error,
2 numeric-check failure, 3 window exhausted.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

import numpy as np

from . import __version__
from .circle import CircleLift, build_denjoy, rotation_number
from .factor import (build_tau, combine_transverse_factors, continuum_Cs,
                     project_to_torus_factor, verify_equivariance)
from .gallery import (GALLERY_MANIFEST, example_fully_essential,
                      example_unbounded_inessential, manifest_suspension,
                      obstruction_probe, obstruction_verdict,
                      surgery_geometry)
from .rotation import (DeviationProbe, RecurrenceProbe, deviation_profile,
                       estimate_rotation_set, walk_probes)
from .serialize import (circle_lift_from_definition, dump_mask, parse_number,
                        torus_map_from_definition, write_csv, write_json)
from .skew import (build_centralized, check_closed_form,
                   check_commutation)
from .torus import TorusMapSpec
from .util import finite_multiples, iterates

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK = 2
EXIT_WINDOW = 3

GALLERY_ALIASES = {
    "3.1": "suspension",
    "3.2": "unbounded-inessential",
    "3.3": "fully-essential",
    "3.4-geometry": "surgery-geometry",
}


# the least value of each count flag, checked before any work
_COUNT_MINIMUMS = {"rotnum": {"n": 1}, "deviations": {"samples": 1, "nmax": 1},
                   "skeworbit": {"nmax": 0},
                   "factor": {"grid": 1, "sladder": 0, "max-iters": 0},
                   "gallery": {"nscan": 1, "nmax": 1},
                   "double-factor": {"grid": 1, "max-iters": 0}}


class UsageError(Exception):
    pass


class CheckFailure(Exception):
    pass


class WindowExhausted(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument errors become a UsageError, reported on one line; a word
    like -1,1, -.5 or -4e-1 is a value, not an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _load_map(args):
    if (args.map is None) == (args.map_file is None):
        raise UsageError("exactly one of --map, --map-file is required")
    if args.map_file is None:
        return torus_map_from_definition(json.loads(args.map))
    with open(args.map_file) as fh:
        return torus_map_from_definition(json.load(fh))


def _numbers(text, count, flag, cast=parse_number):
    """The ``count`` comma-separated values of a list flag."""
    parts = text.split(",")
    if len(parts) != count:
        raise UsageError(f"--{flag} takes {count} comma-separated values, "
                         f"not {text!r}")
    try:
        return tuple(cast(p) for p in parts)
    except ValueError as e:
        raise UsageError(f"--{flag}: {e}") from None


def _resolution(args):
    n_t, n_x, n_y = _numbers(args.resolution, 3, "resolution", int)
    if min(n_t, n_x, n_y) < 1:
        raise UsageError(f"--resolution {args.resolution} has an entry below 1")
    if n_t * n_x * n_y > 2 ** 28:  # 8 times the 256x256x512 default
        raise UsageError(f"--resolution {args.resolution} has more than 2^28 cells")
    return n_t, n_x, n_y


def _outdir(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _resolved(args, names):
    cfg = {k: getattr(args, k.replace("-", "_")) for k in names}
    cfg["command"] = args.command
    return cfg


def cmd_rotnum(args):
    if sum(getattr(args, f) is not None for f in ("rigid", "denjoy", "circle")) != 1:
        raise UsageError("exactly one of --rigid, --denjoy, --circle is required")
    if args.denjoy_order is not None and args.denjoy is None:
        raise UsageError("--denjoy-order applies only to --denjoy")
    if args.rigid is not None:
        lift = CircleLift.rigid(args.rigid)
    elif args.denjoy is not None:
        lift = build_denjoy(args.denjoy, N=40 if args.denjoy_order is None
                            else args.denjoy_order)
    else:
        lift = circle_lift_from_definition(json.loads(args.circle))
    # a rigid lift's estimate is alpha whatever the start point
    if args.x0 is None:
        args.x0 = 0.0
    elif lift.kind == "rigid":
        raise UsageError("--x0 does not apply to a rigid lift")
    est, bound = rotation_number(lift, args.x0, args.n)
    slack = lift.truncation_tol
    print(f"rotation number estimate {est!r} +- {bound + slack!r}")
    cfg = _resolved(args, ["n", "x0"])
    cfg["lift"] = lift.to_definition()
    write_json(os.path.join(_outdir(args), "rotnum.json"),
               {"estimate": est, "error_bound": bound,
                "truncation_slack": slack}, cfg)
    return EXIT_OK


def cmd_deviations(args):
    spec = _load_map(args)
    if args.rho is None:
        raise UsageError("--rho is required")
    v = _numbers(args.v, 2, "v")
    prof = deviation_profile(spec, v, args.rho, n_max=args.nmax,
                             samples=args.samples, seed=args.seed)
    cfg = _resolved(args, ["rho", "nmax", "samples", "seed"])
    cfg["v"] = list(v)
    cfg["map"] = spec.to_definition()
    out = _outdir(args)
    write_csv(os.path.join(out, "deviations.csv"), ["n", "D"],
              zip(prof.n.tolist(), prof.value.tolist()), cfg)
    write_json(os.path.join(out, "deviations.json"),
               {"c_est": prof.c_est, "verdict": prof.verdict,
                "caveat": prof.caveat}, cfg)
    print(f"deviation verdict: {prof.verdict} (C_est={prof.c_est!r}, "
          f"{prof.caveat})")
    return EXIT_OK


def cmd_skeworbit(args):
    spec = _load_map(args)
    if args.rho is None:
        raise UsageError("--rho is required")
    skew = build_centralized(spec, finite_multiples(args.rho, args.nmax))
    t, x, y = _numbers(args.state, 3, "state")
    orbit = enumerate(iterates(skew.step, np.array([[t, x, y]]), args.nmax), 1)
    rows = [(0, t, x, y)] + [(n, *cur[0]) for n, cur in orbit]
    oscillation = float(max(r[3] for r in rows) - min(r[3] for r in rows))
    cfg = _resolved(args, ["rho", "state", "nmax", "seed"])
    cfg["map"] = spec.to_definition()
    out = _outdir(args)
    write_csv(os.path.join(out, "orbit.csv"), ["n", "t", "x", "ytil"], rows, cfg)
    comm = check_commutation(skew, samples=200, seed=args.seed)
    write_json(os.path.join(out, "orbit.json"),
               {"oscillation": oscillation, "commutation_defect": comm.defect},
               cfg)
    print(f"vertical oscillation over {args.nmax} steps: {oscillation!r}")
    if not comm.passed:
        raise CheckFailure(f"commutation defect {comm.defect!r} above threshold")
    return EXIT_OK


def cmd_factor(args):
    n_t, n_x, n_y = _resolution(args)
    spec = _load_map(args)
    if args.rho is None:
        raise UsageError("--rho is required")
    if args.seed_point is None:
        raise UsageError("--seed-point is required")
    sx, sy = _numbers(args.seed_point, 2, "seed-point")
    skew = build_centralized(spec, args.rho, c_est=args.c_est)
    tau = build_tau(skew, (sx, sy), ball_radius=args.ball_radius,
                    n_t=n_t, n_x=n_x, n_y=n_y, half_height=args.window,
                    max_iters=args.max_iters, seed=args.seed)
    cfg = _resolved(args, ["rho", "seed-point", "resolution", "sladder",
                           "tol", "grid", "ball-radius", "window",
                           "max-iters", "c-est", "seed"])
    cfg["map"] = spec.to_definition()
    out = _outdir(args)
    dump_mask(os.path.join(out, "region.json"), tau.mask, cfg)
    if tau.status == "window-exhausted":
        raise WindowExhausted("saturation reached the height window edge")
    fm = project_to_torus_factor(tau, grid=(args.grid, max(args.grid // 2, 8)),
                                 tol=args.tol)
    eq = verify_equivariance(tau, samples=64, tol=args.tol,
                             s_ladder=args.sladder, seed=args.seed)
    X, Y = np.meshgrid(fm.x_grid, fm.y_grid, indexing="ij")
    write_csv(os.path.join(out, "factor.csv"), ["x", "ytil", "h"],
              zip(X.ravel(), Y.ravel(), fm.values.ravel()), cfg)
    cells = tau.geom.h_y
    write_json(os.path.join(out, "defects.json"), {
        "semiconjugacy_defect_max": fm.defect_max,
        "semiconjugacy_defect_mean": fm.defect_mean,
        "cell_height": cells,
        "unit_translate_defect": eq.unit_translate_defect,
        "map_equivariance_defect": eq.map_defect,
        "ordering_violations": eq.ordering_violations,
        "status": tau.status,
        "invariance": tau.invariance,
        "warnings": tau.warnings,
    }, cfg)
    os.makedirs(os.path.join(out, "continua"), exist_ok=True)
    for j in range(args.sladder):
        s = j / args.sladder
        cs = continuum_Cs(tau, s)
        write_csv(os.path.join(out, "continua", f"cs_{j:03d}.csv"),
                  ["x", "ytil"], cs.points.tolist(),
                  dict(cfg, s=s, separating=bool(cs.separating)))
    print(f"factor defect max {fm.defect_max!r} ({fm.defect_max / cells:.2f} cells); "
          f"ordering violations {eq.ordering_violations}")
    if eq.ordering_violations:
        raise CheckFailure("ordering violations in the continuum ladder")
    if not eq.pairs_checked:
        raise CheckFailure("the continuum ladder has no pair two cells apart "
                           "to check")
    return EXIT_OK


def cmd_gallery(args):
    name = GALLERY_ALIASES.get(args.example, args.example)
    if name not in GALLERY_MANIFEST:
        known = sorted(GALLERY_MANIFEST) + sorted(GALLERY_ALIASES)
        raise UsageError("unknown example id %r; known ids: %s" % (
            args.example, ", ".join(known)))
    manifest = GALLERY_MANIFEST[name]
    for flag, key in (("gamma", "gamma"), ("delta", "delta"), ("nscan", "n_scan")):
        if getattr(args, flag) is None:  # only surgery-geometry has the key
            setattr(args, flag, manifest.get(key))
        elif name != "surgery-geometry":
            raise UsageError(f"--{flag} applies only to surgery-geometry")
    # surgery-geometry samples nothing; its header records the defaults
    for flag, default in (("nmax", 10_000), ("seed", 0)):
        if getattr(args, flag) is None:
            setattr(args, flag, default)
        elif name == "surgery-geometry":
            raise UsageError(f"--{flag} does not apply to surgery-geometry")
    out = _outdir(args)
    cfg = _resolved(args, ["nmax", "seed"])
    cfg["example"] = name
    if name == "suspension":
        susp = manifest_suspension(name)
        skew = build_centralized(susp.torus_map,
                                 susp.rho_base * susp.rho_fiber)
        thresholds = manifest["thresholds"]
        comm = check_commutation(skew, seed=args.seed,
                                 threshold=thresholds["commutation"])
        closed = check_closed_form(skew, seed=args.seed,
                                   threshold=thresholds["closed_form"])
        prof = deviation_profile(susp.torus_map, (0, 1),
                                 susp.rho_base * susp.rho_fiber,
                                 n_max=args.nmax, samples=64, seed=args.seed)
        payload = {"rotation_target": list(susp.rotation_target),
                   "commutation_defect": comm.defect,
                   "closed_form_defect": closed.defect,
                   "deviation_c_est": prof.c_est,
                   "deviation_verdict": prof.verdict}
        write_json(os.path.join(out, "gallery_suspension.json"), payload, cfg)
        print(f"suspension: commutation {comm.defect!r}, closed form "
              f"{closed.defect!r}, plateau {prof.c_est!r} ({prof.verdict})")
        if not (comm.passed and closed.passed):
            raise CheckFailure("algebra defect above threshold")
        return EXIT_OK
    if name == "surgery-geometry":
        geo = surgery_geometry(manifest["alpha"], gamma=args.gamma,
                               delta=args.delta, n_scan=args.nscan)
        rows = []
        for n in range(-50, 51):
            center_width = geo.fiber_halfwidth(n, geo.center(n))
            rows.append((n, center_width, 2.0 ** (-abs(n) - 10) * geo.delta,
                         geo.domain_diameter(n)))
        write_csv(os.path.join(out, "surgery.csv"),
                  ["n", "halfwidth_at_center", "schedule_bound", "diameter"],
                  rows, dict(cfg, gamma=args.gamma, delta=args.delta))
        print(f"surgery geometry: diameters constant {2 * geo.delta!r}, "
              f"disjoint through {geo.n_scan} iterates")
        return EXIT_OK
    ex = (example_unbounded_inessential() if name == "unbounded-inessential"
          else example_fully_essential())
    # the three probes share one walk per direction
    prof, scan, times = walk_probes(
        ex.torus_map,
        DeviationProbe((0, 1), ex.rho_vertical, n_max=args.nmax, samples=32,
                       seed=args.seed),
        obstruction_probe(ex, n_max=args.nmax),
        RecurrenceProbe(ex.wandering_center, 0.8 * ex.wandering_radius,
                        n_max=args.nmax // 5, seed=args.seed))
    ev = obstruction_verdict(scan, threshold=manifest["thresholds"]["proximality"])
    payload = {
        "probe_points": {"w0": ex.w0, "w1": ex.w1, "w0_edge": ex.w0_edge,
                         "w1_edge": ex.w1_edge},
        "deviation_c_est": prof.c_est,
        "deviation_verdict": prof.verdict,
        "recurrence_times_in_block": times,
        "forward_min": ev["forward_pair"].forward_min,
        "backward_min": ev["backward_pair"].backward_min,
        "obstruction_evidence": ev["obstruction_evidence"],
        "notes": ex.notes,
    }
    write_json(os.path.join(out, f"gallery_{name}.json"), payload, cfg)
    print(f"{name}: plateau {prof.c_est!r} ({prof.verdict}), "
          f"recurrence times {len(times)}, "
          f"proximality minima {ev['forward_pair'].forward_min!r}/"
          f"{ev['backward_pair'].backward_min!r}, "
          f"obstruction evidence: {ev['obstruction_evidence']}")
    return EXIT_OK


def cmd_double_factor(args):
    n_t, n_x, n_y = _resolution(args)
    spec = _load_map(args)
    if spec.k != 0:
        raise UsageError("double factor requires a map homotopic to the identity")
    cloud = estimate_rotation_set(spec, n_ladder=(200, 2000), samples=32,
                                  seed=args.seed)
    pts = cloud.deepest()
    spreadv = pts.max(axis=0) - pts.min(axis=0)
    if np.any(spreadv > 0.01):
        raise UsageError("rotation cloud not a point; the map is not a "
                         "pseudo-rotation, refusing")
    rho1, rho2 = pts.mean(axis=0)
    out = _outdir(args)
    cfg = _resolved(args, ["resolution", "grid", "max-iters", "seed"])
    cfg["map"] = spec.to_definition()
    fms, cells = [], []
    for label, pipe_spec, rho in (("vertical", spec, rho2),
                                  ("horizontal", _SwappedMap(spec), rho1)):
        tau = build_tau(build_centralized(pipe_spec, rho), (0.5, 0.0), n_t=n_t,
                        n_x=n_x, n_y=n_y, max_iters=args.max_iters,
                        seed=args.seed)
        if tau.status == "window-exhausted":
            raise WindowExhausted(f"{label} pipeline exhausted the window")
        fms.append(project_to_torus_factor(tau, grid=(args.grid, args.grid)))
        cells.append(tau.geom.h_y)
    fm_v, fm_h = fms
    joint = combine_transverse_factors(fm_v, fm_h, spec, (rho1, rho2),
                                       seed=args.seed)
    payload = {"rho": [rho1, rho2],
               "vertical_defect_max": fm_v.defect_max,
               "horizontal_defect_max": fm_h.defect_max,
               "joint": joint,
               "cell_heights": cells}
    write_json(os.path.join(out, "double_factor.json"), payload, cfg)
    print(f"double factor: vertical defect {fm_v.defect_max!r}, "
          f"horizontal defect {fm_h.defect_max!r}")
    return EXIT_OK


class _SwappedMap(TorusMapSpec):
    """Coordinate swap conjugate of a torus map (plumbing for the pair)."""

    kind = "swapped"

    def __init__(self, spec):
        self.spec = spec  # cmd_double_factor has checked that spec.k == 0

    def eval_lift(self, z):
        return self.spec.eval_lift(np.asarray(z, dtype=float)[..., ::-1])[..., ::-1]

    def eval_inverse(self, z):
        return self.spec.eval_inverse(np.asarray(z, dtype=float)[..., ::-1])[..., ::-1]


def _add_common(sub, groups=("seed", "map")):
    sub.add_argument("--out", default="out", help="output directory")
    if "seed" in groups:
        sub.add_argument("--seed", type=int, default=0, help="sampling seed")
    sub.add_argument("--config", default=None,
                     help="JSON file supplying any of the flags")
    if "map" in groups:
        sub.add_argument("--map", default=None,
                         help="inline JSON torus map definition")
        sub.add_argument("--map-file", default=None,
                         help="path to a JSON torus map definition")


def build_parser():
    p = _Parser(prog="torusdyn", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=__version__)
    subs = p.add_subparsers(dest="command", required=True)

    s = subs.add_parser("rotnum", help="rotation number of a circle lift")
    s.add_argument("--rigid", type=parse_number, default=None,
                   help="rigid rotation angle (number or golden/sqrt2)")
    s.add_argument("--denjoy", type=parse_number, default=None,
                   help="truncated blow-up targeting this angle")
    s.add_argument("--denjoy-order", type=int, default=None,
                   help="--denjoy blows up the orbit points |n| <= this (default 40)")
    s.add_argument("--circle", default=None, help="inline JSON circle lift")
    s.add_argument("--n", type=int, default=100_000)
    s.add_argument("--x0", type=parse_number, default=None,
                   help="orbit start (default 0; not for a rigid lift)")
    _add_common(s, groups=())
    s.set_defaults(func=cmd_rotnum)

    s = subs.add_parser("deviations", help="directional deviation table")
    s.add_argument("--v", default="0,1", help="direction, e.g. 0,1")
    s.add_argument("--rho", type=parse_number, default=None)
    s.add_argument("--nmax", type=int, default=10_000)
    s.add_argument("--samples", type=int, default=64)
    _add_common(s)
    s.set_defaults(func=cmd_deviations)

    s = subs.add_parser("skeworbit", help="skew-product orbit dump")
    s.add_argument("--rho", type=parse_number, default=None)
    s.add_argument("--state", default="0,0,0", help="t,x,ytil")
    s.add_argument("--nmax", type=int, default=10_000)
    _add_common(s)
    s.set_defaults(func=cmd_skeworbit)

    s = subs.add_parser("factor", help="circle-factor pipeline")
    s.add_argument("--rho", type=parse_number, default=None)
    s.add_argument("--seed-point", default=None, help="x,ytil")
    s.add_argument("--ball-radius", type=parse_number, default=0.15)
    s.add_argument("--resolution", default="256,256,512")
    s.add_argument("--window", type=parse_number, default=None,
                   help="half height override")
    s.add_argument("--sladder", type=int, default=64)
    s.add_argument("--tol", type=parse_number, default=None)
    s.add_argument("--grid", type=int, default=48)
    s.add_argument("--max-iters", type=int, default=240)
    s.add_argument("--c-est", type=parse_number, default=None)
    _add_common(s)
    s.set_defaults(func=cmd_factor)

    s = subs.add_parser("gallery", help="run a gallery example report")
    s.add_argument("example", help="example id")
    # not surgery-geometry; None takes the default (10000 and 0)
    s.add_argument("--nmax", type=int, default=None)
    s.add_argument("--seed", type=int, default=None, help="sampling seed")
    # surgery-geometry only; None takes the manifest's value
    s.add_argument("--gamma", type=parse_number, default=None)
    s.add_argument("--delta", type=parse_number, default=None)
    s.add_argument("--nscan", type=int, default=None)
    _add_common(s, groups=())
    s.set_defaults(func=cmd_gallery)

    s = subs.add_parser("double-factor",
                        help="paired transverse factors for pseudo-rotations")
    s.add_argument("--resolution", default="128,128,256")
    s.add_argument("--grid", type=int, default=32)
    s.add_argument("--max-iters", type=int, default=240)
    _add_common(s)
    s.set_defaults(func=cmd_double_factor)
    return p, subs.choices


def _config_defaults(args):
    """The config file's values by flag destination, unknown keys rejected.

    Values are passed on as text, so argparse converts and checks them with
    the flag's own type, as it does a string default.
    """
    with open(args.config) as fh:
        file_cfg = json.load(fh)
    if not isinstance(file_cfg, dict):
        raise UsageError("the config file must hold a JSON object")
    out = {}
    for key, val in file_cfg.items():
        attr = key.replace("-", "_")
        if attr in ("func", "command") or not hasattr(args, attr):
            raise UsageError(f"unknown config key: {key}")
        out[attr] = val if isinstance(val, str) else json.dumps(val)
    return out


def main(argv=None):
    parser, commands = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
            if args.config:
                # explicit flags win: the file only replaces the defaults
                commands[args.command].set_defaults(**_config_defaults(args))
                args = parser.parse_args(argv)
        except SystemExit:  # --help and --version
            return EXIT_OK
        for flag, least in _COUNT_MINIMUMS.get(args.command, {}).items():
            value = getattr(args, flag.replace("-", "_"))
            if value is not None and value < least:  # None: gallery's manifest value
                raise UsageError(f"--{flag} must be at least {least}, not {value}")
        if getattr(args, "tol", None) is not None and not args.tol > 0.0:
            raise UsageError(f"--tol must be positive, not {args.tol!r}")
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except CheckFailure as e:
        print(f"numeric check failed: {e}", file=sys.stderr)
        return EXIT_CHECK
    except WindowExhausted as e:
        print(f"window exhausted: {e}", file=sys.stderr)
        return EXIT_WINDOW
    except (ValueError, OverflowError, OSError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("usage error: the input is too large (out of memory)",
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
