"""The repository's pytest settings in a fresh session: a failing
``hypothesis`` test is reported as a failure, and the tests after it still
run. With ``filterwarnings = ["error"]`` alone, the hypothesis plugin's
report hook meets a DeprecationWarning from ``mypy_extensions.TypedDict``
and the session ends with INTERNALERROR after the first failure. Any other
warning still fails its test."""

import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TESTS = '''
    import warnings

    from hypothesis import given, strategies as st


    @given(st.integers())
    def test_a_failing_given_test(x):
        assert x < 0


    def test_a_passing_test():
        pass


    def test_any_other_warning_fails():
        warnings.warn("stray", DeprecationWarning)
'''


def test_a_failing_given_test_does_not_end_the_session(tmp_path):
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_sample.py").write_text(textwrap.dedent(TESTS))
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "2 failed, 1 passed" in run.stdout, run.stdout
    assert "FAILED tests/test_sample.py::test_any_other_warning_fails" in run.stdout
