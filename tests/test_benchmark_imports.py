import ast
import fnmatch
import importlib
import importlib.util
import inspect
import pathlib

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
