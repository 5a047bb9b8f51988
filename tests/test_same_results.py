"""tools/same_results.py: its lines are deterministic."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "same_results.py"
_SPEC = importlib.util.spec_from_file_location("same_results", _PATH)
same_results = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_results)


@pytest.mark.parametrize("case", [["point", [3.2, 3.5, 4.1], "Tu"],
                                  ["orb1", [4, 4, 8], "T", "aabbAB", 10.0]])
def test_case_lines_repeat(case):
    assert case in list(same_results.cases())
    line = same_results.run_case(case)
    assert same_results.run_case(case) == line
    assert '"raised"' not in line
