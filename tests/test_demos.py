"""The demos and the perfbench tracer use the package from outside it;
check that both still work against the current modules."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))


def test_demos_are_numbered_01_to_07():
    assert [demo.name[:2] for demo in DEMOS] == [f"{i:02d}" for i in range(1, 8)]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_exits_cleanly(demo, tmp_path):
    # each demo gets its own empty TMPDIR and must leave it empty
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmpdir))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert list(tmpdir.iterdir()) == []


def test_traced_layers_resolve():
    # perfbench/tracing.py wraps these attributes by name; a rename in the
    # package would otherwise only show when the benchmark runs
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    layers = (*tracing.SENDER_LAYERS, *tracing.RECEIVER_LAYERS)
    assert layers
    for name, module, attr, _ in layers:
        owner = importlib.import_module(f"hcie.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), name
