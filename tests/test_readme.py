"""The README's library example prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example():
    """The fenced python block of the README's "Library example"."""
    section = README.read_text().split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def commented_outputs(code):
    """What each print says it prints: the comment on its own line, or on
    the next line when the print has none."""
    lines = code.splitlines()
    out = []
    for i, line in enumerate(lines):
        if line.startswith("print("):
            _, sep, comment = line.partition("#")
            if not sep:
                _, sep, comment = lines[i + 1].partition("#")
                assert sep and not _.strip(), f"no comment says what {line} prints"
            out.append(comment.strip())
    return out


def test_library_example_prints_its_comments():
    code = library_example()
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, "README.md", "exec"), {})
    expected = commented_outputs(code)
    assert len(expected) == 4
    assert printed.getvalue().splitlines() == expected
