"""The README's library examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run_in_order(capsys):
    blocks = python_blocks(README.read_text())
    assert len(blocks) >= 5
    namespace: dict = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k + 1}", "exec"), namespace)
    out = capsys.readouterr().out
    assert "initial cost: 1.9333333333333333" in out
