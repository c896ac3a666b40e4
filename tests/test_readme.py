"""The README's python blocks run in order, in one namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run(capsys):
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.S | re.M)
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out.strip()
