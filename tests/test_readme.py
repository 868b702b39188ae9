"""The README's library sketch runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_sketch_runs():
    if not README.exists():
        pytest.skip("README.md is not in this checkout")
    block = re.search(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.DOTALL | re.MULTILINE)
    assert block, "README.md has no python block"
    exec(compile(block.group(1), str(README), "exec"), {"__name__": "readme_sketch"})
