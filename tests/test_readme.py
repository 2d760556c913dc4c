"""The README's examples run as written: its `>>>` examples are
doctests, each printed value matched up to an ellipsis, and each of its
CLI examples exits 0 and prints the header its command table gives."""

import dataclasses
import doctest
import importlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_readme_examples_run_as_written():
    failed, attempted = doctest.testfile(str(README), module_relative=False, optionflags=doctest.ELLIPSIS)
    assert attempted and not failed


def _columns_by_command(text):
    """Each CLI table row's command (with its `--stat`, if any) -> the CSV
    header its columns give, from the README's command table."""
    out = {}
    for row in re.findall(r"^\| `([^`]+)` \|.*\| ([^|]+) \|$", text, flags=re.M):
        command, columns = row
        out[command] = ",".join(c.strip(" `") for c in columns.split(","))
    return out


def test_cli_examples_run_as_written(tmp_path):
    # in order: `simulate --records-out` writes the file `estimate --input` reads
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^Examples:\n\n```sh\n(.*?)^```", text, flags=re.M | re.S)[1]
    examples = [shlex.split(line) for line in block.splitlines()]
    assert len(examples) == 6 and all(args[0] == "rallystats" for args in examples)
    headers = _columns_by_command(text)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for _, *args in examples:
        key = args[0] + (f" --stat {args[args.index('--stat') + 1]}" if "--stat" in args else "")
        out = subprocess.run(
            [sys.executable, "-m", "rallystats.cli", *args], cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, (args, out.stderr)
        assert out.stdout.splitlines()[0] == headers[key], args


def _resolve(name):
    """The object a dotted name of the package names: its head is a module
    of the package or a name the package exports (either after an optional
    `rallystats.`), and each further part an attribute, or a dataclass
    field as the last part.  Raises AttributeError for a part that is
    neither."""
    head, *parts = name.removeprefix("rallystats.").split(".")
    try:
        obj = importlib.import_module(f"rallystats.{head}")
    except ModuleNotFoundError:
        obj = getattr(importlib.import_module("rallystats"), head)
    for i, part in enumerate(parts):
        if i == len(parts) - 1 and dataclasses.is_dataclass(obj) and part in {f.name for f in dataclasses.fields(obj)}:
            return obj  # a field without a default is no class attribute
        obj = getattr(obj, part)
    return obj


def test_dotted_package_names_resolve():
    # a pointer such as `duration.exchange_mixture` or `kernel.Game.shift_laws`
    # names a module attribute or a dataclass field that exists
    import rallystats

    text = re.sub(r"^```.*?^```", "", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    heads = {"rallystats", *rallystats.__all__, *(p.stem for p in Path(rallystats.__file__).parent.glob("*.py"))}
    names = {n for n in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", text) if n.split(".")[0] in heads}
    assert len(names) > 20
    missing = []
    for name in sorted(names):
        try:
            _resolve(name)
        except AttributeError:
            missing.append(name)
    assert not missing
