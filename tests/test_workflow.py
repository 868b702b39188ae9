"""The CI workflow runs tests through pytest only: no script inlined in YAML."""

import re
from pathlib import Path

import pytest

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def _workflow() -> str:
    if not WORKFLOW.exists():
        pytest.skip("the CI workflow is not in this checkout")
    return WORKFLOW.read_text(encoding="utf-8")


def test_workflow_pipes_no_heredoc_into_python():
    # A check written as `python - <<'EOF'` is run by no local command, seen
    # by no linter and reported by no test id; it belongs in tests_slow/.
    inline = re.findall(r"python3?[ \t]+-(?:[ \t]+\S+)*?[ \t]*<<-?[ \t]*['\"]?\w+", _workflow())
    assert not inline, inline


def test_workflow_runs_the_slow_tests():
    assert re.search(r"^\s*run: .*\bpytest\b.*\btests_slow\b", _workflow(), re.MULTILINE)
