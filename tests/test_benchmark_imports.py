import ast
import fnmatch
import importlib
import importlib.util
import inspect
import pathlib

import numpy as np

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = PERFBENCH / "workloads.py"
SPANS = PERFBENCH / "spans.py"


def test_benchmark_workload_imports_resolve():
    # the benchmark imports torusdyn names inside its workload methods, so a
    # removed or renamed name shows only when the benchmark runs
    tree = ast.parse(WORKLOADS.read_text())
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "torusdyn"
               for alias in node.names]
    assert imports
    for module, name in imports:
        mod = importlib.import_module(module)
        assert (hasattr(mod, name)
                or importlib.util.find_spec(f"{module}.{name}") is not None), \
            f"perfbench/workloads.py: from {module} import {name}"


def span_config():
    """LAYERS, SPAN_GROUPS and the names behind the Tracer's ``_after_<name>``
    hooks, read from ``perfbench/spans.py`` without importing it."""
    tree = ast.parse(SPANS.read_text())
    consts = {node.targets[0].id: node.value for node in tree.body
              if isinstance(node, ast.Assign)
              and isinstance(node.targets[0], ast.Name)}
    tracer = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "Tracer")
    hooks = [node.name for node in tracer.body if isinstance(node, ast.FunctionDef)]
    hooks += [t.id for node in tracer.body if isinstance(node, ast.Assign)
              for t in node.targets if isinstance(t, ast.Name)]
    return (ast.literal_eval(consts["LAYERS"]), ast.literal_eval(consts["SPAN_GROUPS"]),
            [h[len("_after_"):] for h in hooks if h.startswith("_after_")])


def test_benchmark_span_names_resolve():
    # the tracer wraps what it finds, so a renamed function leaves its
    # per-layer metric at zero instead of failing
    layers, groups, hooks = span_config()
    spans, shorts = set(), set()
    for layer in layers:
        mod = importlib.import_module(f"torusdyn.{layer}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and not name.startswith("_"):
                spans.add(f"{layer}.{name}")
                shorts.add(name)
            elif inspect.isclass(obj):
                for mname, fn in vars(obj).items():
                    if inspect.isfunction(fn) and (not mname.startswith("_")
                                                   or mname == "__call__"):
                        spans.add(f"{layer}.{obj.__name__}.{mname}")
                        shorts.add(mname)
    assert groups and hooks
    for stem, patterns in groups.items():
        assert any(fnmatch.fnmatchcase(n, p) for n in spans for p in patterns), \
            f"perfbench/spans.py: SPAN_GROUPS[{stem!r}] matches no traced name"
    for short in hooks:
        assert short in shorts, f"perfbench/spans.py: hook _after_{short}"


def load_tracer():
    """perfbench/spans.py's Tracer, run from its source (no bytecode is
    written next to it)."""
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return namespace["Tracer"]


def test_benchmark_counter_hooks_read_real_results():
    # the hooks index the results of the calls they follow, so a changed
    # return shape would break only traced runs
    from torusdyn.factor import build_tau, lower_component
    from torusdyn.skew import (build_centralized, invariance_defect,
                               saturate_block_orbit)
    from torusdyn.torus import RigidTranslation

    skew = build_centralized(RigidTranslation(0.618, 0.414), 0.414)
    tau = build_tau(skew, (0.5, 0.0), n_t=8, n_x=8, n_y=16)
    pts = np.array([[0.5, 0.0], [0.55, 0.1]])
    saturated = saturate_block_orbit(skew, pts, tau.geom, max_iters=12)
    # the seed comes back as the flat indices of its cells, not as a grid
    assert saturated[1].dtype == np.int32 and saturated[1].ndim == 1
    assert saturated[2:] == ("max-iters", 12)
    inv = invariance_defect(skew, tau.mask)
    tracer = load_tracer()("hooks")
    tracer._after_saturate_block_orbit(0, (skew, pts, tau.geom), {}, saturated)
    tracer._after_build_tau(1, (skew, (0.5, 0.0)), {}, tau)
    tracer._after_invariance_defect(2, (skew, tau.mask), {}, inv)
    # two calls with one fill key: no fill is kept, so both are misses
    for i in (3, 4):
        tracer._after_lower_component(i, (tau, 0.3), {}, lower_component(tau, 0.3))
    assert tracer.rounds == 12
    assert tracer.region_cells == tracer.invariance_cells == tau.mask.count > 0
    assert list(tracer.fill_miss_spans) == [3, 4]


def test_benchmark_repetitions_start_cold(monkeypatch):
    # perfbench's heights workload clears tau._fills before each repetition;
    # a cache kept anywhere else would let later repetitions skip labels
    import torusdyn.skew
    from torusdyn.circle import CircleLift
    from torusdyn.factor import (build_tau, continuum_Cs, heights,
                                 verify_equivariance)
    from torusdyn.skew import build_centralized
    from torusdyn.torus import SuspensionMap

    a, b = 0.618, 0.414
    skew = build_centralized(SuspensionMap(CircleLift.rigid(a), CircleLift.rigid(b)),
                             a * b, c_est=b)
    tau = build_tau(skew, (0.5, 0.0), n_t=16, n_x=16, n_y=32)
    labels = []
    real = torusdyn.skew._label_x_wrapped
    monkeypatch.setattr(torusdyn.skew, "_label_x_wrapped",
                        lambda *args: labels.append(1) or real(*args))
    geom = tau.geom
    rng = np.random.default_rng(0)
    z = np.column_stack([rng.uniform(0.0, 1.0, 32),
                         rng.uniform(geom.y_min, geom.y_max, 32)])
    counts = []
    for _ in range(2):
        tau._fills.clear()
        before = len(labels)
        heights(tau, z)
        verify_equivariance(tau, samples=16, s_ladder=16)
        for j in range(16):
            continuum_Cs(tau, j / 16)
        counts.append(len(labels) - before)
    assert counts[0] > 0 and counts[1] == counts[0]
