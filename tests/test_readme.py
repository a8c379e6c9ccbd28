"""The README's Python examples run as written, against the package they import."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    # the blocks share one namespace, as a reader running them in turn does:
    # the second example uses the model the first one made
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.MULTILINE | re.DOTALL)
    assert blocks
    namespace = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_readme_names_the_current_options():
    # the defaults block holds every header field once, at its default, and
    # every --flag the README names is one the parser takes
    from rwrs import cli

    text = README.read_text()
    block = re.search(r"^```\n(hurst=.*?)^```", text, flags=re.MULTILINE | re.DOTALL).group(1)
    pairs = [item.split("=", 1) for item in block.split()]
    fields = [name for name in cli._HEADER if name != "command"]
    assert sorted(key for key, _ in pairs) == sorted(fields)
    for key, value in pairs:
        assert cli._FIELDS[key].metadata["parse"](key, value) == cli._FIELDS[key].default, key
    parser = cli._build_parser()
    accepted = set(parser._option_string_actions)
    for sub in parser._subparsers._group_actions[0].choices.values():
        accepted |= set(sub._option_string_actions)
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text)) - {"--no-build-isolation", "--name"}
    assert named <= accepted, sorted(named - accepted)
