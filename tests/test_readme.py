"""The README's library quick start runs, and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def _quick_start() -> str:
    text = README.read_text()
    section = text[text.index("## Quick start (library)"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_prints_its_comments():
    code = _quick_start()
    # each print line's comment begins with the exact output, then ": note"
    want = [
        line.split("# ", 1)[1].partition(":")[0]
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == want
    assert len(want) == 5
