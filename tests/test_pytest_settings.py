"""The test settings in pyproject.toml keep a session going past a failing test."""

import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TWO_TESTS = textwrap.dedent('''
    from hypothesis import given, settings, strategies as st


    @settings(database=None, derandomize=True)
    @given(st.integers())
    def test_fails(x):
        assert x < 0


    def test_passes():
        assert True
''')


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", os.path.join(ROOT, "pyproject.toml"), "--rootdir", str(tmp_path),
                           "test_two.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout.splitlines()[-1]
    assert proc.returncode == 1
