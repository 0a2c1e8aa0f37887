"""The README's "Library use" example runs verbatim against the package."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def library_use_block() -> str:
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_runs(capsys):
    exec(compile(library_use_block(), "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert printed[-1] in ("True", "False")
