"""The README's library quick start runs, and prints what its comments say;
its sweep example prints the output it shows; and it quotes the exact
expectation's costs as the term cap's refusal states them."""

import contextlib
import io
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from aoiclock import extended
from aoiclock.cli import main

README = Path(__file__).parent.parent / "README.md"


def _block_after(heading: str, lang: str) -> str:
    """The first code block fenced as ``lang`` after ``heading``."""
    text = README.read_text()
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", text[text.index(heading):], re.S | re.M)
    return next(body for fence, body in blocks if fence == lang)


def test_quick_start_prints_its_comments():
    code = _block_after("## Quick start (library)", "python")
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


def test_sweep_example_prints_its_output(tmp_path):
    # the example grid of "Grid files", swept as "sweep" shows it
    grid = tmp_path / "grid.json"
    grid.write_text(_block_after("## Grid files", "json"))
    out = io.StringIO()
    argv = ["sweep", "--grid", str(grid), "--out", str(tmp_path / "results"), "--jobs", "8"]
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    want = _block_after("### sweep", "").splitlines()
    assert out.getvalue().splitlines()[:2] == want[:2]
    assert want[2] == "wrote 19 files to results/"
    assert len(list((tmp_path / "results").iterdir())) == 19


def test_exact_costs_match_the_term_cap_refusal():
    # the seconds at b = 10^5, at p = 1/2 and at p = 1/30000
    with pytest.raises(ValueError) as exc:
        extended._check_terms(SimpleNamespace(b=extended._MAX_TERMS + 1))
    stated = re.search(r"about ([\d.]+) s at b = 100000 and p = 1/2, ([\d.]+) s at p = 1/30000",
                       str(exc.value))
    quoted = re.search(r"`b = 10\^5` about ([\d.]+) s, and at `b = 10\^5` and\s+"
                       r"`p = 1/30000` about ([\d.]+) s", README.read_text())
    assert stated and quoted
    assert quoted.groups() == stated.groups()
