"""The suite's pytest settings report every failing test instead of ending the session."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

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
