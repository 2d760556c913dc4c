"""The mutant corpus of `tools/mutants.py` stays in step with the code:
every entry's fragment occurs exactly once in its module, so each entry
mutates the code it names."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = sys.modules["mutants"] = importlib.util.module_from_spec(spec)  # its dataclass looks itself up there
spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_fragment_occurs_once_in_its_module(mutant):
    source = (ROOT / "src" / "rallystats" / f"{mutant.module}.py").read_text(encoding="utf-8")
    assert source.count(mutant.old) == 1


def test_a_killing_test_is_reported_by_its_whole_id(monkeypatch):
    # a parametrized id may hold spaces; the message follows " - "
    stdout = "F\nFAILED tests/test_kernel.py::test_x[(0.0, 0.5)] - AssertionError: a - b\n1 failed in 0.1s\n"
    monkeypatch.setattr(mutants.subprocess, "run", lambda cmd, **kwargs: mutants.subprocess.CompletedProcess(cmd, 1, stdout, ""))
    assert mutants._pytest(ROOT, []) == "tests/test_kernel.py::test_x[(0.0, 0.5)]"
