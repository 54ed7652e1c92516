"""Scans of the package source for the README's one-primitive contracts.

- No module imports scipy: components are labeled by runs in numpy
  (``skew._label_x_wrapped``), and every other grid morphology is built on
  ``skew._or_shifted``. A CLI run is checked not to load scipy at all.
- ``util.wrap01`` is the one mod-1 reduction: no ``x % 1`` (nor ``np.mod``,
  ``np.fmod``, ``np.remainder``, ``math.fmod`` or ``divmod`` by 1) appears.
- The library never prints: no module but ``cli.py`` calls ``print`` or
  touches ``sys.stdout`` or ``sys.stderr``.
- The two halves of a walk run in two processes through one fork:
  ``os.fork`` occurs once, in ``util._both_ways``, and no module imports
  ``multiprocessing`` or ``concurrent.futures``.
"""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "torusdyn"
_MODS = {"mod", "fmod", "remainder", "divmod"}


def sources():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no package source under {SRC}"
    return [(p.name, ast.parse(p.read_text(), filename=str(p))) for p in paths]


def _is_scipy(module):
    return module == "scipy" or module.startswith("scipy.")


def scipy_breaches(name, tree):
    """Where a module imports scipy, at any depth, by statement or by name."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bad = any(_is_scipy(a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            bad = _is_scipy(node.module or "")
        elif isinstance(node, ast.Call) and node.args:
            f = node.func
            called = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            arg = node.args[0]
            bad = (called in ("import_module", "__import__")
                   and isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                   and _is_scipy(arg.value))
        else:
            continue
        if bad:
            out.append(node.lineno)
    return [f"{name}:{n}" for n in sorted(out)]


def _is_one(node):
    return (isinstance(node, ast.Constant) and not isinstance(node.value, bool)
            and node.value == 1)


def mod_one_breaches(name, tree):
    """Where a module reduces mod 1 other than through wrap01."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            right = node.right if isinstance(node, ast.BinOp) else node.value
            bad = isinstance(node.op, ast.Mod) and _is_one(right)
        elif isinstance(node, ast.Call) and len(node.args) == 2:
            f = node.func
            called = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            bad = called in _MODS and _is_one(node.args[1])
        else:
            continue
        if bad:
            out.append(node.lineno)
    return [f"{name}:{n}" for n in sorted(out)]


def print_breaches(name, tree):
    """Where a module prints or reaches for the standard streams."""
    streams = {"stdout", "stderr", "__stdout__", "__stderr__"}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            bad = getattr(node.func, "id", None) == "print"
        elif isinstance(node, ast.Attribute):
            bad = (node.attr in streams
                   and getattr(node.value, "id", None) == "sys")
        elif isinstance(node, ast.ImportFrom):
            bad = node.module == "sys" and any(a.name in streams
                                               for a in node.names)
        else:
            continue
        if bad:
            out.append(node.lineno)
    return [f"{name}:{n}" for n in sorted(set(out))]


def fork_sites(name, tree):
    """Where a module names os.fork, as name:function, the innermost
    function around each site."""
    spans = sorted(((fn.end_lineno - fn.lineno, fn.lineno, fn.end_lineno, fn.name)
                    for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)))
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "fork"
                and getattr(node.value, "id", None) == "os"):
            out.append(f"{name}:" + next((f for _, a, b, f in spans
                                          if a <= node.lineno <= b), "<module>"))
    return out


def pool_imports(name, tree):
    """Where a module imports multiprocessing or concurrent.futures."""
    pools = ("multiprocessing", "concurrent")
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bad = any(a.name.split(".")[0] in pools for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            bad = (node.module or "").split(".")[0] in pools
        else:
            continue
        if bad:
            out.append(f"{name}:{node.lineno}")
    return out


def test_one_fork_and_no_process_pool():
    trees = sources()
    assert [s for name, tree in trees for s in fork_sites(name, tree)] == \
        ["util.py:_both_ways"]
    assert [b for name, tree in trees for b in pool_imports(name, tree)] == []


def test_no_module_imports_scipy():
    assert [b for name, tree in sources() for b in scipy_breaches(name, tree)] == []


def test_factor_run_loads_no_scipy(tmp_path):
    # the CLI's import and a small region build, labels included, in a fresh
    # process: nothing there may load scipy, not even lazily
    code = ("import sys, torusdyn.cli\n"
            "code = torusdyn.cli.main(sys.argv[1:])\n"
            "print(code, 'scipy' in sys.modules)\n")
    argv = ["factor", "--map", '{"kind":"rigid","offset":[0.6180339887,0.4142135624]}',
            "--rho", "0.4142135624", "--seed-point", "0.5,0", "--resolution",
            "16,16,32", "--sladder", "8", "--max-iters", "20", "--grid", "8",
            "--out", str(tmp_path)]
    path = [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1].split() == ["0", "False"]
    assert (tmp_path / "region.json").exists()


def test_wrap01_is_the_one_mod1_reduction():
    assert [b for name, tree in sources() for b in mod_one_breaches(name, tree)] == []


def test_library_never_prints():
    assert [b for name, tree in sources() if name != "cli.py"
            for b in print_breaches(name, tree)] == []


def test_scans_catch_breaches():
    # the scans see what they are written to refuse
    bad = ast.parse("from scipy import ndimage\n"
                    "import numpy as np, scipy.ndimage\n"
                    "def _label_x_wrapped(a):\n"
                    "    import scipy\n"
                    "    from scipy.ndimage import label\n"
                    "    return importlib.import_module('scipy.ndimage').label(a)\n"
                    "import scipyx\n"
                    "from . import scipy_free\n"
                    "np.asarray('scipy')\n")
    assert scipy_breaches("skew.py", bad) == [f"skew.py:{n}" for n in (1, 2, 4, 5, 6)]
    mods = ast.parse("a = x % 1\nx %= 1.0\nnp.mod(x, 1)\nmath.fmod(x, 1)\n"
                     "y = x % 2\nz = divmod(x, 1)\n")
    assert mod_one_breaches("m.py", mods) == [f"m.py:{n}" for n in (1, 2, 3, 4, 6)]
    prints = ast.parse("print('x')\n"
                       "sys.stdout.write('x')\n"
                       "log(file=sys.stderr)\n"
                       "from sys import stderr\n"
                       "sys.__stdout__.flush()\n"
                       "self.print('x')\n"
                       "stdout = 'sys.stdout'\n"
                       "os.stderr\n"
                       "logging.getLogger('torusdyn').info('x')\n")
    assert print_breaches("m.py", prints) == [f"m.py:{n}" for n in (1, 2, 3, 4, 5)]
    forks = ast.parse("pid = os.fork()\n"
                      "def spawn():\n"
                      "    return os.fork()\n"
                      "hasattr(os, 'fork')\n"
                      "self.fork()\n")
    assert sorted(fork_sites("m.py", forks)) == ["m.py:<module>", "m.py:spawn"]
    pools = ast.parse("import multiprocessing\n"
                      "from concurrent.futures import ProcessPoolExecutor\n"
                      "import multiprocessing.pool as mp\n"
                      "from .multiprocessing_free import x\n"
                      "import concurrency\n")
    assert pool_imports("m.py", pools) == [f"m.py:{n}" for n in (1, 2, 3)]
