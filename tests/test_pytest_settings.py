"""The suite's pytest settings.

A failing property does not end the session, and the ci profile repeats its examples.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PYPROJECT = HERE.parent / "pyproject.toml"

FAILING_PROPERTY_THEN_PASSING_TEST = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_property_does_not_end_the_session(tmp_path):
    # with some hypothesis versions the plugin's report hook for a failing property
    # raises a third-party DeprecationWarning, which filterwarnings = ["error"] alone
    # turns into an INTERNALERROR that skips every later test
    (tmp_path / "test_two.py").write_text(FAILING_PROPERTY_THEN_PASSING_TEST)
    res = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
                          "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
                          "test_two.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = res.stdout + res.stderr
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 1 passed" in res.stdout, output


RECORDING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=20, database=None)
@given(st.floats(-1e6, 1e6))
def test_records(x):
    with open("drawn.txt", "a") as fh:
        fh.write(repr(x) + "\\n")
'''


def test_ci_profile_repeats_its_examples(tmp_path):
    # the suite's conftest loads the profile named by HYPOTHESIS_PROFILE; "ci" is derandomized
    shutil.copy(HERE / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "test_drawn.py").write_text(RECORDING_PROPERTY)
    env = {**os.environ, "HYPOTHESIS_PROFILE": "ci",
           "PYTHONPATH": os.pathsep.join([str(HERE.parent / "src"), os.environ.get("PYTHONPATH", "")])}
    runs = []
    for _ in range(2):
        res = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
                              "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
                              "test_drawn.py"],
                             cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
        assert "1 passed" in res.stdout, res.stdout + res.stderr
        runs.append((tmp_path / "drawn.txt").read_text())
        (tmp_path / "drawn.txt").unlink()
    assert runs[0] == runs[1]
    assert len(set(runs[0].split())) > 1
