"""The README's Python blocks, run in order in one namespace, as a reader
would paste them, so that a renamed or removed API name fails here."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_python_blocks_run_in_order(capsys):
    blocks = python_blocks()
    assert len(blocks) >= 4
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
    assert namespace["result"].termination.value == "tolerance_met"
