"""The README's library example runs as printed."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_example_prints_its_comments():
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(compile(block, str(README), "exec"), {})
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    commented = [line.rsplit("# ", 1)[1] for line in prints]
    assert buf.getvalue().splitlines() == commented == ["11 None", "True", "0.0"]
