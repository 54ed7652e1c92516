"""The mutation registry stays in step with the tree: each entry's ``old``
text occurs exactly once in its file, and each test it names is collected.
The mutants themselves run only by ``python tests/mutants.py``."""

import subprocess
import sys

from mutants import MUTANTS, ROOT


def test_each_old_text_occurs_once():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert m.new != m.old, m.name
        assert (ROOT / m.path).read_text().count(m.old) == 1, m.name


def test_each_named_test_is_collected():
    ids = sorted({t for m in MUTANTS for t in m.tests})
    assert all(m.tests for m in MUTANTS)
    run = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                          "-p", "no:cacheprovider", "-o", "addopts=", *ids],
                         cwd=ROOT, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
    collected = {line.split("[")[0] for line in run.stdout.splitlines() if "::" in line}
    assert collected == {t.split("[")[0] for t in ids}
