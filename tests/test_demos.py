"""The demos and the perfbench tracer use the package from outside it;
check that both still work against the current modules."""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
import threading
import time
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


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_layers_resolve():
    # perfbench/tracing.py wraps these attributes by name; a rename in the
    # package would otherwise only show when the benchmark runs
    tracing = load_tracing()
    layers = (*tracing.SENDER_LAYERS, *tracing.RECEIVER_LAYERS)
    assert layers
    for name, module, attr, _ in layers:
        owner = importlib.import_module(f"hcie.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), name


def test_perfbench_calls_bind():
    # perfbench/ calls the package by position and keyword; a signature
    # change that breaks one of those calls would otherwise only show when
    # the benchmark runs
    calls = [
        (path.name, node)
        for path in sorted((ROOT / "perfbench").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in {"cli", "envelope", "hill", "rsa", "transfer"}
    ]
    assert calls
    for name, call in calls:
        where = f"{name}:{call.lineno} {call.func.value.id}.{call.func.attr}"
        # a starred argument cannot be bound without running the call
        assert not any(isinstance(arg, ast.Starred) for arg in call.args), where
        assert all(kw.arg for kw in call.keywords), where
        target = getattr(importlib.import_module(f"hcie.{call.func.value.id}"), call.func.attr)
        try:
            inspect.signature(target).bind(*call.args, **{kw.arg: kw for kw in call.keywords})
        except TypeError as exc:
            pytest.fail(f"{where}: {exc}")


def test_every_traced_layer_records_a_span(recipient_pair, sender_pair, tmp_path):
    # the traced benchmark reports every layer and fails on one without spans
    from hcie import envelope, hill, rsa, transfer

    tracing = load_tracing()
    pub, priv = recipient_pair
    spub, spriv = sender_pair
    layers = dict.fromkeys((*tracing.SENDER_LAYERS, *tracing.RECEIVER_LAYERS))
    modules = {"hill": hill, "rsa": rsa, "envelope": envelope, "transfer": transfer}
    (tmp_path / "inbox").mkdir()
    (tmp_path / "traced.bin").write_bytes(b"traced payload" * 100)
    tracer = tracing.Tracer()
    tracer.install(modules, layers)
    try:
        env = envelope.seal(b"traced payload", pub, spriv, spub, dim_log2=2)
        plaintext = envelope.open_envelope(envelope.parse(envelope.serialize(env)), priv, spub)
        assert plaintext == b"traced payload"
        srv = transfer.TransferServer(0, priv, {rsa.fingerprint(spub): spub}.get,
                                      tmp_path / "inbox", host="127.0.0.1")
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            transfer.send_file("127.0.0.1", srv.port, tmp_path / "traced.bin", pub, spriv, spub)
            # the session's span lands just after its ACK is written
            deadline = time.monotonic() + 10
            while not any(span[0] == "transfer.TransferServer._session"
                          for span in tracer.spans) and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            srv.shutdown()
            thread.join(timeout=5)
    finally:
        tracer.uninstall()
    recorded = {span[0] for span in tracer.spans}
    assert [name for name, *_ in layers if name not in recorded] == []
