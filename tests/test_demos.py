"""Every narrative demo under demos/ runs to completion without a traceback,
and the README's Python example prints what its comments say."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_readme_python_example_matches_its_comments():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    for line in block.splitlines():
        expr, _, shown = line.partition("#")
        if shown:  # each commented value is what the line gives, to four decimals
            got = np.asarray(eval(expr, namespace))
            if got.dtype.kind == "f":
                got = np.round(got, 4)
            assert np.array_equal(got, eval(shown, {"array": np.array})), line
    assert np.array_equal(np.round(namespace["epoch"].kappa, 4), [1.0, 0.0743, 0.0339])
