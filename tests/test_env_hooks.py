"""Every environment hook the engine reads is exercised by some CI job.

An ``os.environ`` read in ``src/`` that no workflow job sets is a
setting nothing turns on: its code path runs in no lane.  This census
collects each ``REPRO_*`` name the package reads and requires it in the
``env:`` map of some job or step of ``.github/workflows/ci.yml``.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: ``os.environ.get("REPRO_X")``, ``os.environ["REPRO_X"]`` and
#: ``os.getenv("REPRO_X")``.
_READ = re.compile(
    r"""os\.(?:environ(?:\.get)?\s*[\(\[]|getenv\s*\()\s*["'](REPRO_\w+)["']"""
)


def env_reads():
    """REPRO_* names read through os.environ anywhere under src/."""
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        names.update(_READ.findall(path.read_text(encoding="utf-8")))
    return names


def workflow_env_names(text):
    """Keys of every ``env:`` map (job- or step-level) in a workflow."""
    names = set()
    block_indent = None
    for line in text.splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        indent = len(line) - len(line.lstrip())
        if block_indent is not None:
            if indent > block_indent:
                match = re.match(r"\s*([A-Za-z_]\w*)\s*:", line)
                if match:
                    names.add(match.group(1))
                continue
            block_indent = None
        if re.match(r"\s*env:\s*$", line):
            block_indent = indent
    return names


def test_workflow_env_parser_reads_nested_maps():
    text = (
        "jobs:\n"
        "  a:\n"
        "    env:\n"
        "      REPRO_A: \"1\"\n"
        "    steps:\n"
        "      - name: x\n"
        "        env:\n"
        "          REPRO_B: b\n"
        "        run: echo REPRO_C\n"
    )
    assert workflow_env_names(text) == {"REPRO_A", "REPRO_B"}


def test_every_env_hook_is_set_by_a_ci_job():
    reads = env_reads()
    assert reads, "no REPRO_* environment reads found under src/"
    workflow = ROOT / ".github" / "workflows" / "ci.yml"
    set_in_ci = workflow_env_names(workflow.read_text(encoding="utf-8"))
    unset = sorted(reads - set_in_ci)
    assert not unset, (
        f"src/ reads {unset} but no job in {workflow.name} sets them; "
        "delete the hook or give it a CI lane"
    )
