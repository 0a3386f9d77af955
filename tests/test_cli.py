import argparse
import importlib.metadata
import os
import random
import re
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hcie import cli, envelope, rsa, transfer
from hcie.transfer import FrameKind


def write_pair(tmp_path, name, pair):
    pub, priv = pair
    pub_path = tmp_path / f"{name}.pub"
    key_path = tmp_path / f"{name}.key"
    pub_path.write_bytes(rsa.serialize_key(pub))
    key_path.write_bytes(rsa.serialize_key(priv))
    return pub_path, key_path


@pytest.fixture
def keyfiles(tmp_path, recipient_pair, sender_pair):
    bob_pub, bob_key = write_pair(tmp_path, "bob", recipient_pair)
    alice_pub, alice_key = write_pair(tmp_path, "alice", sender_pair)
    return {
        "bob.pub": bob_pub, "bob.key": bob_key,
        "alice.pub": alice_pub, "alice.key": alice_key,
    }


class TestKeygen:
    def test_writes_a_matched_pair(self, tmp_path, capsys):
        out = tmp_path / "pair"
        assert cli.main(["keygen", "--bits", "512", "--out", str(out)]) == 0
        pub = rsa.parse_key((tmp_path / "pair.pub").read_bytes())
        priv = rsa.parse_key((tmp_path / "pair.key").read_bytes())
        assert isinstance(pub, rsa.RsaPublicKey)
        assert isinstance(priv, rsa.RsaPrivateKey)
        assert (pub.n, pub.e) == (priv.n, priv.e)
        assert rsa.fingerprint(pub).hex() in capsys.readouterr().out

    def test_private_key_file_mode(self, tmp_path):
        out = tmp_path / "pair"
        cli.main(["keygen", "--bits", "512", "--out", str(out)])
        assert (tmp_path / "pair.key").stat().st_mode & 0o777 == 0o600

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing 0644"])
    def test_private_key_is_never_readable_by_others(self, tmp_path, monkeypatch, existing):
        # with chmod a no-op, only the mode the key is written with counts
        key_path = tmp_path / "pair.key"
        if existing:
            key_path.write_bytes(b"stale")
            key_path.chmod(0o644)
        monkeypatch.setattr(os, "chmod", lambda *args, **kwargs: None)
        umask = os.umask(0o022)
        try:
            assert cli.main(["keygen", "--bits", "512", "--out", str(tmp_path / "pair")]) == 0
        finally:
            os.umask(umask)
        assert key_path.stat().st_mode & 0o777 == 0o600
        assert isinstance(rsa.parse_key(key_path.read_bytes()), rsa.RsaPrivateKey)

    def test_nonstandard_bits_is_usage_error(self, tmp_path, capsys):
        assert cli.main(["keygen", "--bits", "77", "--out", str(tmp_path / "x")]) == 1
        assert "error" in capsys.readouterr().err

    def test_insecure_flag_allows_small(self, tmp_path):
        assert cli.main(
            ["keygen", "--bits", "64", "--insecure", "--out", str(tmp_path / "tiny")]
        ) == 0


class TestSealOpen:
    def test_file_round_trip(self, tmp_path, keyfiles, capsys):
        src = tmp_path / "secret.txt"
        src.write_bytes(b"between alice and bob")
        env_path = tmp_path / "secret.hcie"
        out_path = tmp_path / "secret.out"

        assert cli.main([
            "seal", "--in", str(src), "--out", str(env_path),
            "--to", str(keyfiles["bob.pub"]), "--from", str(keyfiles["alice.key"]),
        ]) == 0
        assert cli.main([
            "open", "--in", str(env_path), "--out", str(out_path),
            "--to", str(keyfiles["bob.key"]), "--from", str(keyfiles["alice.pub"]),
        ]) == 0
        assert out_path.read_bytes() == b"between alice and bob"

    def test_dim_log2_flag(self, tmp_path, keyfiles, capsys):
        src = tmp_path / "m.txt"
        src.write_bytes(b"a 4x4 key")
        env_path = tmp_path / "m.hcie"
        out_path = tmp_path / "m.out"
        seal = [
            "seal", "--in", str(src),
            "--to", str(keyfiles["bob.pub"]), "--from", str(keyfiles["alice.key"]),
        ]
        assert cli.main(seal + ["--out", str(env_path), "--dim-log2", "2"]) == 0
        assert envelope.parse(env_path.read_bytes()).dim_log2 == 2
        assert cli.main([
            "open", "--in", str(env_path), "--out", str(out_path),
            "--to", str(keyfiles["bob.key"]), "--from", str(keyfiles["alice.pub"]),
        ]) == 0
        assert out_path.read_bytes() == b"a 4x4 key"
        capsys.readouterr()

        refused = tmp_path / "refused.hcie"
        assert cli.main(seal + ["--out", str(refused), "--dim-log2", "7"]) == 1
        assert "dim_log2 must be in [1, 6], got 7" in capsys.readouterr().err
        assert not refused.exists()

    def test_open_with_wrong_sender_key(self, tmp_path, keyfiles, capsys):
        src = tmp_path / "m.txt"
        src.write_bytes(b"msg")
        env_path = tmp_path / "m.hcie"
        cli.main([
            "seal", "--in", str(src), "--out", str(env_path),
            "--to", str(keyfiles["bob.pub"]), "--from", str(keyfiles["alice.key"]),
        ])
        capsys.readouterr()
        # bob's own public key is not alice's: the signature cannot verify
        code = cli.main([
            "open", "--in", str(env_path), "--out", str(tmp_path / "m.out"),
            "--to", str(keyfiles["bob.key"]), "--from", str(keyfiles["bob.pub"]),
        ])
        assert code == 2
        assert "signature" in capsys.readouterr().err

    def test_open_garbage_envelope(self, tmp_path, keyfiles, capsys):
        bad = tmp_path / "bad.hcie"
        bad.write_bytes(b"HCIEgarbage")
        code = cli.main([
            "open", "--in", str(bad), "--out", str(tmp_path / "bad.out"),
            "--to", str(keyfiles["bob.key"]), "--from", str(keyfiles["alice.pub"]),
        ])
        assert code == 2

    def test_key_role_confusion_rejected(self, tmp_path, keyfiles, capsys):
        # both directions: a private key where a public one belongs, and a
        # public key where a private one belongs
        src = tmp_path / "m.txt"
        src.write_bytes(b"msg")
        out = tmp_path / "m.hcie"
        for to, sender, role in [
            ("bob.key", "alice.key", "holds a private key where a public key is required"),
            ("bob.pub", "alice.pub", "holds a public key where a private key is required"),
        ]:
            code = cli.main([
                "seal", "--in", str(src), "--out", str(out),
                "--to", str(keyfiles[to]), "--from", str(keyfiles[sender]),
            ])
            assert code == 2
            assert not out.exists()
            assert role in capsys.readouterr().err


class TestSignVerify:
    def test_round_trip(self, tmp_path, keyfiles, capsys):
        doc = tmp_path / "doc.bin"
        doc.write_bytes(b"contract body")
        sig = tmp_path / "doc.sig"
        assert cli.main([
            "sign", "--in", str(doc), "--key", str(keyfiles["alice.key"]), "--out", str(sig),
        ]) == 0
        assert cli.main([
            "verify", "--in", str(doc), "--key", str(keyfiles["alice.pub"]), "--sig", str(sig),
        ]) == 0
        assert "signature OK" in capsys.readouterr().out

    def test_signature_file_is_the_envelope_signature(
        self, tmp_path, keyfiles, recipient_pair, sender_pair
    ):
        pub, _ = recipient_pair
        spub, spriv = sender_pair
        doc = tmp_path / "doc.bin"
        doc.write_bytes(b"contract body")
        sig = tmp_path / "doc.sig"
        cli.main(["sign", "--in", str(doc), "--key", str(keyfiles["alice.key"]), "--out", str(sig)])
        env = envelope.seal(b"contract body", pub, spriv, spub, random.Random(37))
        assert sig.read_bytes() == rsa.sign(spriv, b"contract body") == env.signature
        assert len(env.signature) == spub.byte_length()

    def test_tampered_document_fails(self, tmp_path, keyfiles, capsys):
        doc = tmp_path / "doc.bin"
        doc.write_bytes(b"contract body")
        sig = tmp_path / "doc.sig"
        cli.main(["sign", "--in", str(doc), "--key", str(keyfiles["alice.key"]), "--out", str(sig)])
        doc.write_bytes(b"contract body, amended")
        capsys.readouterr()
        code = cli.main([
            "verify", "--in", str(doc), "--key", str(keyfiles["alice.pub"]), "--sig", str(sig),
        ])
        assert code == 2
        assert "signature" in capsys.readouterr().err


class TestUsage:
    def test_no_arguments(self, capsys):
        assert cli.main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: hcie ")
        assert "hcie: error: " in err

    def test_unknown_flag(self, capsys):
        assert cli.main(["keygen", "--bogus"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert cli.main(["seal", "--in", "x"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "hcie seal: error: the following arguments are required" in err

    def test_missing_input_file(self, tmp_path, keyfiles, capsys):
        code = cli.main([
            "seal", "--in", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o"),
            "--to", str(keyfiles["bob.pub"]), "--from", str(keyfiles["alice.key"]),
        ])
        assert code == 1

    @pytest.mark.parametrize(
        "command, port",
        [("send", "70000"), ("recv", "70000"), ("recv", "-1")],
        ids=["send 70000", "recv 70000", "recv -1"],
    )
    def test_port_outside_tcp_range(self, command, port, tmp_path, keyfiles, capsys, monkeypatch):
        def no_socket(*args, **kwargs):
            raise AssertionError("a usage error reached the network")

        monkeypatch.setattr(transfer, "send_file", no_socket)
        monkeypatch.setattr(transfer, "TransferServer", no_socket)
        (tmp_path / "trust").mkdir()
        rest = {
            "send": ["--host", "127.0.0.1", "--file", str(keyfiles["bob.pub"]),
                     "--to", str(keyfiles["bob.pub"]), "--from", str(keyfiles["alice.key"])],
            "recv": ["--out-dir", str(tmp_path / "inbox"), "--key", str(keyfiles["bob.key"]),
                     "--trust", str(tmp_path / "trust")],
        }[command]
        assert cli.main([command, "--port", port, *rest]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == (
            f"hcie {command}: error: argument --port: {port} is not a TCP port (0-65535)"
        )

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "keygen" in capsys.readouterr().out

    def test_subcommand_set(self):
        # help text names "seal" in other lines too, so pin the names themselves
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(sub.choices) == {
            "keygen", "seal", "open", "sign", "verify", "send", "recv", "bench",
        }


class TestBenchCommand:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert cli.main(["bench", "--sizes", "2048,4096", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 6
        stdout = capsys.readouterr().out
        assert "hill_only" in stdout and "rsa_only" in stdout and "hybrid" in stdout

    def test_bad_sizes_is_usage_error(self, tmp_path, capsys):
        assert cli.main(["bench", "--sizes", "12no", "--out", str(tmp_path / "b.csv")]) == 1
        assert cli.main(["bench", "--sizes", "10", "--out", str(tmp_path / "b.csv")]) == 1


def start_recv(tmp_path, keyfiles):
    """An `hcie recv` subprocess trusting alice, and the port it announced."""
    trust = tmp_path / "trust"
    trust.mkdir()
    (trust / "alice.pub").write_bytes(keyfiles["alice.pub"].read_bytes())
    # a child inherits an ignored SIGINT (as under `cmd &` in a script),
    # but starts with the default disposition if this process handles it
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "hcie", "recv",
                "--port", "0", "--out-dir", str(tmp_path / "inbox"),
                "--key", str(keyfiles["bob.key"]), "--trust", str(trust),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        signal.signal(signal.SIGINT, previous)
    line = proc.stdout.readline()
    match = re.search(r"listening on port (\d+)", line)
    if not match:
        stop_recv(proc)
        pytest.fail(f"unexpected server banner: {line!r}")
    return proc, int(match.group(1))


def stop_recv(proc):
    """Stop the server; returns its stdout after the banner and its
    stderr."""
    if proc.poll() is None:
        proc.kill()
    return proc.communicate(timeout=10)  # reaps it and closes its pipes


class TestSendRecv:
    def test_end_to_end_over_subprocess_server(self, tmp_path, keyfiles, capsys):
        proc, port = start_recv(tmp_path, keyfiles)
        try:
            src = tmp_path / "wire.bin"
            src.write_bytes(b"over the wire" * 1000)
            code = cli.main([
                "send", "--host", "127.0.0.1", "--port", str(port), "--file", str(src),
                "--to", str(keyfiles["bob.pub"]), "--from", str(keyfiles["alice.key"]),
            ])
            assert code == 0
            assert "server digest" in capsys.readouterr().out
            assert (tmp_path / "inbox" / "wire.bin").read_bytes() == b"over the wire" * 1000
        finally:
            stdout, _ = stop_recv(proc)
        # the banner is the only stdout line: a caller that reads it from a
        # pipe it never drains would stall a server that wrote more
        assert stdout == ""

    def test_sigint_stops_recv_and_closes_its_port(self, tmp_path, keyfiles):
        proc, port = start_recv(tmp_path, keyfiles)
        try:
            # an OK reply shows the accept loop is running
            with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
                with sock.makefile("rwb") as stream:
                    transfer.write_frame(stream, FrameKind.HELLO, transfer.HELLO_PAYLOAD)
                    assert transfer.read_frame(stream).kind == FrameKind.OK
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=5) == 0
        finally:
            stop_recv(proc)
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", port), timeout=5.0).close()

    def test_send_to_dead_port_fails(self, tmp_path, keyfiles, capsys):
        src = tmp_path / "x.bin"
        src.write_bytes(b"x")
        code = cli.main([
            "send", "--host", "127.0.0.1", "--port", "1", "--file", str(src),
            "--to", str(keyfiles["bob.pub"]), "--from", str(keyfiles["alice.key"]),
        ])
        assert code == 1  # refused connection surfaces as an I/O error


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# The launcher an installer writes for a console_scripts entry point
# (pip and distlib use this template on POSIX).
LAUNCHER = r"""#!{executable}
# -*- coding: utf-8 -*-
import re
import sys
from {module} import {name}
if __name__ == '__main__':
    sys.argv[0] = re.sub(r'(-script\.pyw|\.exe)?$', '', sys.argv[0])
    sys.exit({attr}())
"""


def declared_console_script(name="hcie"):
    """The `module:attr` target pyproject.toml declares for script `name`."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def run_help_as_console_script():
    out = subprocess.run(
        ["hcie", "--help"], capture_output=True, text=True, timeout=30
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: hcie ")
    assert "seal" in out.stdout


class TestEntryPoints:
    def test_console_script(self, tmp_path, monkeypatch):
        # Install-free: write the launcher an installer would generate from
        # the declared target and put it first on PATH, so `hcie` resolves
        # to pyproject.toml's entry point whether or not hcie is installed.
        module, _, attr = declared_console_script().partition(":")
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        script = bin_dir / "hcie"
        script.write_text(LAUNCHER.format(
            executable=sys.executable, module=module,
            name=attr.split(".")[0], attr=attr,
        ))
        script.chmod(0o755)
        monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")
        run_help_as_console_script()

    @pytest.mark.skipif(
        shutil.which("hcie") is None, reason="hcie console script not installed on PATH"
    )
    def test_installed_console_script(self):
        run_help_as_console_script()
        try:
            dist = importlib.metadata.distribution("hcie")
        except importlib.metadata.PackageNotFoundError:
            return
        installed = [
            ep.value for ep in dist.entry_points
            if ep.group == "console_scripts" and ep.name == "hcie"
        ]
        assert installed == [declared_console_script()]

    def test_python_dash_m(self):
        out = subprocess.run(
            [sys.executable, "-m", "hcie", "--help"],
            capture_output=True, text=True, timeout=30,
        )
        assert out.returncode == 0
