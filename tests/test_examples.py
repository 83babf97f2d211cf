"""Every script under ``examples/`` runs to completion.

The examples are documentation that executes; running each one as its
own process keeps a refactor from silently breaking the API they show.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_found():
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_package_quickstart_runs():
    """The ``Quickstart::`` block of the ``repro`` package docstring runs."""
    import repro

    block = []
    for line in repro.__doc__.split("Quickstart::", 1)[1].splitlines()[1:]:
        if line.strip() and not line.startswith("    "):
            break
        block.append(line)
    code = textwrap.dedent("\n".join(block))
    assert "system.run(" in code
    exec(compile(code, "repro quickstart", "exec"), {})
