"""What a fresh interpreter loads: `import rallystats` and `rallystats.cli`
import only `core`, each command imports only the engines it calls, and
nothing loads a module of the test extra (the package depends on numpy
and click alone).

Inside the test session every engine is already imported, so these checks
run in new processes; so does one more run of the golden CLI corpus, which
is how a command that forgot an import would show.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rallystats
from rallystats import core, matchlevel

SRC = Path(__file__).parents[1] / "src"
COMMANDS = json.loads((Path(__file__).parent / "golden" / "cli_commands.json").read_text())
BASE = {"rallystats", "rallystats.core"}
GAME = ["--n", "5", "--pa", ".6", "--pb", ".5"]
RECORD = '{"first_server": "A", "alpha": 5, "beta": 3, "last_scorer": "A", "duration": 12}\n'

TEST_EXTRA = ("scipy", "mpmath", "hypothesis", "pytest")
# writes the rallystats modules loaded so far, whether numpy is, and the
# modules of the test extra loaded, to the file named by the first argument
LIST = f"""
import json, sys
modules = sorted(m for m in sys.modules if m.partition(".")[0] == "rallystats")
extra = sorted(m for m in sys.modules if m.partition(".")[0] in {TEST_EXTRA!r})
json.dump([modules, "numpy" in sys.modules, extra], open(sys.argv[1], "w"))
"""
# runs the CLI on the other arguments
RUN = """
import sys
from rallystats import cli
cli.main.main(args=sys.argv[2:], prog_name="rallystats", standalone_mode=False)
"""


def fresh(args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def loaded(tmp_path, code, *args):
    """(rallystats modules, numpy loaded, modules of the test extra) after
    `code` in a new interpreter."""
    out = tmp_path / "modules.json"
    proc = fresh(["-c", code, str(out), *args])
    assert proc.returncode == 0, proc.stderr
    modules, numpy, extra = json.loads(out.read_text())
    return set(modules), numpy, extra


def test_import_package_loads_core_only(tmp_path):
    assert loaded(tmp_path, "import rallystats" + LIST) == (BASE, False, [])


def test_import_cli_adds_only_the_cli(tmp_path):
    modules, _, extra = loaded(tmp_path, "import rallystats.cli" + LIST)
    assert modules == BASE | {"rallystats.cli"}
    assert extra == []


@pytest.mark.parametrize(
    "args, engines",
    [
        (["score-dist", *GAME], {"sideout", "kernel"}),
        (["duration", *GAME, "--stat", "quantiles"], {"duration", "kernel"}),
        (["compare", "--p-grid", "0.1:0.9:0.4"], {"kernel", "duration", "asymptotics"}),
        (["simulate", *GAME, "-j", "20", "--seed", "1"], {"simulate"}),
        (["simulate", *GAME, "-j", "20", "--seed", "1", "--records-out", "{records}"], {"simulate", "estimate", "kernel"}),
        (["estimate", "--input", "{records}", "--mode", "score"], {"estimate", "kernel"}),
        (["match", *GAME, "-m", "2"], {"matchlevel", "duration", "sideout", "kernel"}),
        (["plan", *GAME, "-m", "2", "--matches", "3"], {"matchlevel", "duration", "sideout", "kernel"}),
    ],
    ids=["score-dist", "duration", "compare", "simulate", "simulate-records", "estimate", "match", "plan"],
)
def test_each_command_loads_exactly_its_engines(tmp_path, args, engines):
    records = tmp_path / "games.jsonl"
    records.write_text(RECORD)
    args = [a.format(records=records) for a in args]
    modules, numpy, extra = loaded(tmp_path, RUN + LIST, *args)
    assert modules == BASE | {"rallystats.cli"} | {f"rallystats.{e}" for e in engines}
    assert numpy
    assert extra == []  # no module of the test extra at runtime


# no batch starts a thread, so none loads a thread pool; np.unique without
# counts or indices imports numpy.ma on first use (9-16 ms), which neither
# fit mode calls
@pytest.mark.parametrize(
    "module, args",
    [
        ("concurrent.futures", ["simulate", *GAME, "-j", "10000", "--seed", "1"]),
        ("concurrent.futures", ["simulate", *GAME, "-j", "300000", "--seed", "1"]),
        ("numpy.ma", ["estimate", "--input", "{records}", "--mode", "score-duration"]),
        ("numpy.ma", ["estimate", "--input", "{records}", "--mode", "score"]),
    ],
    ids=["one-block-batch", "two-block-batch", "score-duration-fit", "score-fit"],
)
def test_command_leaves_module_unloaded(tmp_path, module, args):
    records = tmp_path / "games.jsonl"
    records.write_text(RECORD)
    out = tmp_path / "loaded.json"
    code = RUN + f"\nimport json\njson.dump({module!r} in sys.modules, open(sys.argv[1], 'w'))"
    proc = fresh(["-c", code, str(out), *(a.format(records=records) for a in args)])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text()) is False


@pytest.mark.parametrize("case", COMMANDS, ids=[case["name"] for case in COMMANDS])
def test_commands_match_golden_text_in_a_fresh_process(case):
    proc = fresh(["-m", "rallystats.cli", *case["args"]])
    assert (proc.returncode, proc.stdout) == (case["exit_code"], case["stdout"])
    assert proc.stderr == case.get("stderr", "")


def test_star_import_binds_every_export(tmp_path):
    code = "import json, sys\nns = {}\nexec('from rallystats import *', ns)\njson.dump(sorted(ns), open(sys.argv[1], 'w'))"
    out = tmp_path / "names.json"
    proc = fresh(["-c", code, str(out)])
    assert proc.returncode == 0, proc.stderr
    assert set(rallystats.__all__) <= set(json.loads(out.read_text()))


@pytest.mark.parametrize("name", rallystats.__all__)
def test_every_export_resolves_to_its_module(name):
    module = rallystats._LAZY.get(name, "core")
    assert getattr(rallystats, name) is getattr(importlib.import_module(f"rallystats.{module}"), name)
    assert name in dir(rallystats)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(rallystats, "no_such_name")
    assert not hasattr(rallystats, "no_such_name")


def test_server_rule_is_one_class():
    assert core.ServerRule is matchlevel.ServerRule is rallystats.ServerRule
