import ast
import importlib
import importlib.util
import pathlib

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


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
