"""The README's library quick start runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) == 1, "expected one python block in README.md"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    lines = out.getvalue().splitlines()
    # the model matches its target, and the sampled block passes
    assert lines[0] == "True" and lines[-1] == "True", lines
