"""The suite's own configuration, run on a probe file in a subprocess."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
import warnings

from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_a_failing_property(x):
    assert x < 0


def test_a_deprecation_of_our_own():
    warnings.warn("ours", DeprecationWarning)


def test_a_passing_test():
    pass
'''


def test_a_failing_property_is_reported_and_the_run_goes_on(tmp_path):
    # hypothesis's failure report raises a deprecation of its own; the suite
    # must count that test as failed and run the rest, while a deprecation in
    # a test still fails it
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(CONFIG), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "2 failed, 1 passed" in run.stdout
    assert run.returncode == 1
