"""torusdyn benchmark: three fixed workloads, gated outputs, traced layers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload factor-rigid --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics; both are declared in ``BENCHMARK.json`` at the checkout root. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable table. Each run also writes a full record (checks, output hashes,
rep times, versions, commit) under ``perfbench/out/`` and remembers its
output hashes and deterministic counters under
``perfbench/records/<sources digest>/``, so a later run with the same seed
and the same code must reproduce them, and a run of other code shows
whether its outputs differ.

Every measurement runs in fresh child processes (``worker.py``). For the
end-to-end metrics, measuring processes set up and repeat the measured
phase, and set-up-only processes are interleaved between them; each
process gives one ``setup_s`` sample and the medians are reported. How a
workload spreads over processes is set by its ``split`` and
``setup_block`` (see ``workloads.py``). For the per-layer metrics: one
untraced and one traced process, each running the measured phase once. See
README.md for why each workload exists and what each metric means.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
DEADLINE_S = 170  # the whole run, workers included, ends within this

# counters that must repeat exactly for the same seed and code
DETERMINISTIC = (
    "skew.saturate_block_orbit.rounds", "skew.region_cells",
    "factor.lower_component.calls", "factor.fill_misses",
    "torus.annulus_map.points", "torus.eval_lift.points",
    "torus.eval_inverse.points", "circle.eval.points",
    "rotation.orbit_points",
)


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _worker(root, workload, seed, mode, out, result, deadline, seconds=0.0,
            trace=0):
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--seconds", repr(seconds), "--trace", str(trace),
           "--out", out, "--result", result]
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with code {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    with open(result) as fh:
        return json.load(fh)


def _measure(wl, seconds, worker):
    """End-to-end runs: measuring processes with set-up-only ones between.

    Returns (runs, setups): the reports of the measuring processes and the
    set-up time of every process, in the order they ran.
    """
    runs, setups = [], []

    def setup_block():
        for _ in range(wl.setup_block):
            setups.append(worker("setup", f"setup{len(setups)}")["setup_s"])

    while True:
        setup_block()
        run = worker("run", f"run{len(runs)}",
                     seconds=seconds / wl.split if wl.split else 0.0)
        runs.append(run)
        setups.append(run["setup_s"])
        measured = sum(r["wall_s"] for run in runs for r in run["reps"])
        if (len(runs) == wl.split if wl.split else measured >= seconds):
            break
    setup_block()
    return runs, setups


def _source_digest(root):
    """sha256 over the library and benchmark sources, keying the records."""
    h = hashlib.sha256()
    for base in (os.path.join(root, "src", "torusdyn"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _compare_records(records, digest, name, hashes, counters):
    """Checks against the stored record of this seed and these sources.

    Stores the record if there is none yet. Returns (checks, others): others
    maps the digest of every other source tree with a record for this seed
    to the output files whose hashes differ from this run's.
    """
    checks = []
    path = os.path.join(records, digest[:12], name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if os.path.exists(path):
        with open(path) as fh:
            rec = json.load(fh)
        same = rec["hashes"] == hashes
        checks.append(("record.output_hashes", same,
                       "outputs identical to the stored run with this seed"
                       if same else "outputs differ from the stored run"))
    else:
        rec = {"source_digest": digest, "hashes": hashes, "counters": {}}
    if counters:
        if rec["counters"]:
            diff = {k: (rec["counters"][k], v) for k, v in counters.items()
                    if rec["counters"].get(k) != v}
            checks.append(("record.counters", not diff,
                           f"counters differ (stored, now): {diff}" if diff
                           else "counters identical to the stored run"))
        else:
            rec["counters"] = counters
    with open(path, "w") as fh:
        json.dump(rec, fh, indent=1, sort_keys=True)
    others = {}
    for other in sorted(os.listdir(records)):
        opath = os.path.join(records, other, name)
        if other != digest[:12] and os.path.exists(opath):
            with open(opath) as fh:
                ohashes = json.load(fh)["hashes"]
            others[other] = sorted(k for k in set(ohashes) | set(hashes)
                                   if ohashes.get(k) != hashes.get(k))
    return checks, others


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "torusdyn", "__init__.py")):
        return _fail("no torusdyn sources under ./src; run from a checkout root")
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as e:
        return _fail(f"cannot read BENCHMARK.json: {e}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    tag = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    out = os.path.join(HERE, "out", tag)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    records = os.path.join(HERE, "records")
    os.makedirs(records, exist_ok=True)

    def worker(mode, name, seconds=0.0, trace=0):
        return _worker(root, args.workload, args.seed, mode,
                       os.path.join(out, name), os.path.join(out, f"{name}.json"),
                       deadline, seconds=seconds, trace=trace)

    try:
        if args.trace:
            # one untraced and one traced repetition, each the first in its
            # own fresh process, so their difference is the tracing cost
            runs = [worker("run", "untraced")]
            traced = worker("run", "traced", trace=1)["traced"]
            setups = []
        else:
            runs, setups = _measure(WORKLOADS[args.workload], args.seconds,
                                    worker)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        return _fail(str(e))

    reps = [r for run in runs for r in run["reps"]]
    checks = [tuple(c) for r in reps for c in r["checks"]]
    for i, r in enumerate(reps[1:], 1):
        same = r["hashes"] == reps[0]["hashes"]
        checks.append((f"rep{i}.identical", same,
                       "outputs identical to rep 0" if same else "outputs differ"))
    walls = [r["wall_s"] for r in reps]
    platform = runs[0]["platform"]
    counters = {}
    if args.trace:
        checks += [tuple(c) for c in traced["checks"]]
        same = traced["hashes"] == reps[0]["hashes"]
        checks.append(("traced.identical", same,
                       "traced outputs identical to untraced" if same
                       else "tracing changed the outputs"))
        table = {k: tuple(v) for k, v in traced["metrics"].items()}
        table["proc.cpu_s"] = (reps[0]["cpu_s"], "s")
        table["proc.cores"] = (platform["cores"], "count")
        table["trace.overhead_s"] = (table["trace.wall_s"][0] - walls[0], "s")
        counters = {k: table[k][0] for k in DETERMINISTIC}
    else:
        table = {"setup_s": (statistics.median(setups), "s"),
                 "wall_s": (statistics.median(walls), "s"),
                 "peak_rss_mb": (max(r["peak_rss_mb"] for r in runs), "MB")}
    digest = _source_digest(root)
    record_checks, others = _compare_records(
        records, digest, f"{args.workload}-seed{args.seed}.json",
        reps[0]["hashes"], counters)
    checks += record_checks
    outputs_sha = hashlib.sha256(
        json.dumps(reps[0]["hashes"], sort_keys=True).encode()).hexdigest()

    failed = sum(not ok for _, ok, _ in checks)
    missing = [m["name"] for m in wanted if m["name"] not in table]
    if missing:
        return _fail(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": table[m["name"]][0], "unit": m["unit"]}
               for m in wanted}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": _git_commit(root),
        "source_digest": digest, "platform": platform,
        "setup_samples_s": setups, "processes": len(runs),
        "rep_wall_s": walls, "rep_cpu_s": [r["cpu_s"] for r in reps],
        "fail_ratio": failed / len(checks), "hashes": reps[0]["hashes"],
        "outputs_sha256": outputs_sha, "outputs_differ_from": others,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in table.items()},
    }
    with open(os.path.join(out, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"commit {record['git_commit'][:12]}  cores {platform['cores']}  "
          f"python {platform['python']}  numpy {platform['numpy']}  "
          f"scipy {platform['scipy']}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'fail_ratio':<40} {failed / len(checks):>16.6g} "
          f"ratio ({failed}/{len(checks)} checks)")
    for n, ok, d in checks:
        if not ok:
            print(f"  FAILED {n}: {d}")
    print(f"  outputs sha256 {outputs_sha} (sources {digest[:12]})")
    for other, differ in others.items():
        print(f"  outputs vs sources {other}: "
              + (f"DIFFER in {', '.join(differ)}" if differ else "identical"))
    print(f"  record: {os.path.relpath(os.path.join(out, 'record.json'), root)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(checks),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
