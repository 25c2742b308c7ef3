"""README states contracts, and these checks keep it in step with the code:
every library name it gives exists, its commands parse, its list of
integer options is the parser's, and it stays short enough to read."""

import argparse
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import succmso
from succmso import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
FENCED = re.compile(r"^```(\w*)\n(.*?)^```$", re.M | re.S)
PROSE = FENCED.sub("", README)
MODULES = {
    name: importlib.import_module(f"succmso.{name}")
    for _, name, _ in pkgutil.iter_modules(succmso.__path__)
}


def _resolve(name):
    """The object that a dotted name in README stands for: a path from
    succmso, from one of its modules, or from a name one of them defines."""
    parts = name.split(".")
    if parts[0] == "succmso":
        parts = parts[1:]
    if parts[0] in MODULES:
        objects = [MODULES[parts[0]]]
    else:
        objects = [vars(m)[parts[0]] for m in MODULES.values() if parts[0] in vars(m)]
    assert objects, f"README names {name!r}, which no succmso module defines"
    obj = objects[0]
    for part in parts[1:]:
        assert hasattr(obj, part), f"README names {name!r}, but {part!r} is not there"
        obj = getattr(obj, part)
    return obj


def test_every_dotted_name_in_readme_resolves():
    spans = re.findall(r"`([^`]+)`", PROSE)  # a span may wrap a line
    names = [s for s in spans if re.fullmatch(r"[A-Za-z_]\w*(?:\.\w+)+", s)]
    assert "reduce.succ_ref" in names and "CompiledFormula.parse" in names
    for name in names:
        if not (ROOT / name).is_file():  # such as pyproject.toml
            _resolve(name)


def test_readme_names_no_private_identifier():
    assert re.findall(r"(?<!\w)_\w+", README) == []


def _shell_commands():
    blocks = [body for lang, body in FENCED.findall(README) if lang == "sh"]
    return [line for body in blocks for line in body.splitlines() if line.startswith("succmso ")]


@pytest.mark.parametrize("line", _shell_commands())
def test_readme_commands_parse(line):
    parser = cli._build_parser()
    try:
        args = parser.parse_args(shlex.split(line)[1:])
        check_usage = getattr(args, "check_usage", None)
        if check_usage is not None:
            check_usage(args)
    except SystemExit:
        pytest.fail(f"README command does not parse: {line}")


def _integer_options(parser):
    """The flags of parser and its subcommands whose values go through
    the integer rule."""
    found = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                found |= _integer_options(sub)
        elif action.type in (cli._int_option, cli._count_option):
            found.update(action.option_strings)
    return found


def test_readme_lists_exactly_the_integer_options():
    listed = re.search(r"integer\s+options\s+\(([^)]*)\)", README)
    assert listed is not None
    assert set(re.findall(r"`(--[\w-]+)`", listed.group(1))) == _integer_options(
        cli._build_parser()
    )


def test_readme_is_short():
    assert len(README.split()) <= 1200
    layout = README.split("## Layout", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in layout.splitlines() if line.startswith("| `succmso.")]
    named = {row.split("`")[1].removeprefix("succmso.") for row in rows}
    assert named == set(MODULES) - {"errors"}  # one row per module
    for row in rows:
        assert len(row) <= 300, row[:60]
