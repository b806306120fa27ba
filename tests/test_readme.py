"""The README's worked example, run as a doctest."""

import doctest
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_example_runs_as_a_doctest():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted >= 5
    assert result.failed == 0
