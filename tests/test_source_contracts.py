"""Scans of the package source for the README's one-primitive contracts.

- ``ndimage`` only labels: it is imported once, in ``skew``, and referenced
  only as ``ndimage.label`` inside ``skew._label_x_wrapped``. Every other
  grid morphology is built on ``skew._or_shifted``.
- ``util.wrap01`` is the one mod-1 reduction: no ``x % 1`` (nor ``np.mod``,
  ``np.fmod``, ``np.remainder``, ``math.fmod`` or ``divmod`` by 1) appears.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "torusdyn"
_MODS = {"mod", "fmod", "remainder", "divmod"}


def sources():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no package source under {SRC}"
    return [(p.name, ast.parse(p.read_text(), filename=str(p))) for p in paths]


def ndimage_breaches(name, tree):
    """Where a module uses ndimage other than as _label_x_wrapped's label."""
    allowed = set()
    if name == "skew.py":
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and fn.name == "_label_x_wrapped":
                allowed |= {id(node.value) for node in ast.walk(fn)
                            if isinstance(node, ast.Attribute) and node.attr == "label"}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bad = any("ndimage" in a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            bad = "ndimage" in (node.module or "") or any(
                a.name == "ndimage" and (name != "skew.py" or a.asname)
                for a in node.names)
        elif isinstance(node, ast.Attribute):
            bad = node.attr == "ndimage"
        elif isinstance(node, ast.Name):
            bad = node.id == "ndimage" and id(node) not in allowed
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


def test_ndimage_only_labels():
    assert [b for name, tree in sources() for b in ndimage_breaches(name, tree)] == []


def test_wrap01_is_the_one_mod1_reduction():
    assert [b for name, tree in sources() for b in mod_one_breaches(name, tree)] == []


def test_scans_catch_breaches():
    # the scans see what they are written to refuse
    bad = ast.parse("from scipy import ndimage\n"
                    "def _label_x_wrapped(a):\n"
                    "    return ndimage.label(a), ndimage.maximum_filter(a, 3)\n"
                    "b = ndimage.label\n"
                    "import scipy.ndimage\n"
                    "from scipy.ndimage import binary_closing\n")
    assert ndimage_breaches("skew.py", bad) == [f"skew.py:{n}" for n in (3, 4, 5, 6)]
    assert ndimage_breaches("factor.py", ast.parse("from scipy import ndimage")) \
        == ["factor.py:1"]
    mods = ast.parse("a = x % 1\nx %= 1.0\nnp.mod(x, 1)\nmath.fmod(x, 1)\n"
                     "y = x % 2\nz = divmod(x, 1)\n")
    assert mod_one_breaches("m.py", mods) == [f"m.py:{n}" for n in (1, 2, 3, 4, 6)]
