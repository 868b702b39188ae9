"""The README's library sketch and command-line example run as written."""

import io
import re
from pathlib import Path

import pytest

from toruskit import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme() -> str:
    if not README.exists():
        pytest.skip("README.md is not in this checkout")
    return README.read_text(encoding="utf-8")


def test_readme_library_sketch_runs():
    block = re.search(r"^```python\n(.*?)^```", _readme(), re.DOTALL | re.MULTILINE)
    assert block, "README.md has no python block"
    exec(compile(block.group(1), str(README), "exec"), {"__name__": "readme_sketch"})


def test_readme_command_line_example_prints_its_json(tmp_path):
    # The spec is the README's one json block; the example prints the report
    # of ``toruskit tamagawa`` on it, which must match byte for byte.
    text = _readme()
    spec = re.search(r"^```json\n(.*?)^```", text, re.DOTALL | re.MULTILINE)
    example = re.search(r"^\$ toruskit tamagawa (\S+)\n(.*?)^```", text,
                        re.DOTALL | re.MULTILINE)
    assert spec and example, "README.md has no tamagawa example"
    path = tmp_path / example.group(1)
    path.write_text(spec.group(1), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    assert cli.main(["tamagawa", str(path)], stdout=out, stderr=err) == 0, err.getvalue()
    assert out.getvalue() == example.group(2)
