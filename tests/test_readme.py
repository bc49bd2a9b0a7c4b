"""The README's library example runs against the current public names."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README has no python block under '## Library example'"
    return match.group(1)


def test_library_example_runs(capsys):
    code = library_example()
    exec(compile(code, str(README), "exec"), {})
    # the first print is annotated with its output in the README
    first_print = next(line for line in code.splitlines() if line.startswith("print("))
    expected = first_print.split("#", 1)[1].strip()
    assert capsys.readouterr().out.splitlines()[0] == expected
