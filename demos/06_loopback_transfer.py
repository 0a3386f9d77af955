"""
Moving sealed files over TCP
============================

The transfer protocol is four frames: HELLO (version check), OK, FILE
(name + serialized envelope), ACK (sha256 of what the server recovered).
The server opens the envelope before writing anything, writes a
temporary file and hard-links it to its name, and never overwrites —
collisions get numeric suffixes.  This demo runs a server and a client in one process.
"""

import random
import tempfile
import threading
from pathlib import Path

from hcie import rsa, transfer
from hcie.errors import TransferError

rng = random.Random(8080)
server_pub, server_priv = rsa.keygen(512, rng)
alice_pub, alice_priv = rsa.keygen(512, rng)
mallory_pub, mallory_priv = rsa.keygen(512, rng)

with tempfile.TemporaryDirectory(prefix="hcie-demo-") as tmp:
    workdir = Path(tmp)
    inbox = workdir / "inbox"
    inbox.mkdir()

    # The server trusts exactly one sender fingerprint: Alice's.
    trusted = {rsa.fingerprint(alice_pub): alice_pub}
    server = transfer.TransferServer(0, server_priv, trusted.get, inbox)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    print("server listening on 127.0.0.1:%d, inbox = %s" % (server.port, inbox))

    # --- a normal transfer -----------------------------------------------------
    report = workdir / "q3-report.bin"
    report.write_bytes(rng.randbytes(100_000))

    ack = transfer.send_file(
        "127.0.0.1", server.port, report, server_pub, alice_priv, alice_pub
    )
    print("\nAlice sends q3-report.bin (100,000 bytes)")
    print("ACK status:", ack.status, " digest:", ack.digest.hex()[:24], "...")
    print("server wrote:", (inbox / "q3-report.bin").stat().st_size, "bytes, identical:",
          (inbox / "q3-report.bin").read_bytes() == report.read_bytes())

    # --- duplicate names never overwrite ---------------------------------------
    report.write_bytes(b"amended edition")
    transfer.send_file("127.0.0.1", server.port, report, server_pub, alice_priv, alice_pub)
    print("\nsecond file with the same name landed as:",
          sorted(p.name for p in inbox.iterdir()))

    # --- an untrusted sender is turned away -------------------------------------
    gift = workdir / "gift.bin"
    gift.write_bytes(b"totally legitimate payload")
    try:
        transfer.send_file("127.0.0.1", server.port, gift, server_pub, mallory_priv, mallory_pub)
    except TransferError as exc:
        print("\nMallory tries to send:", exc)
    print("gift.bin in inbox:", (inbox / "gift.bin").exists())

    server.shutdown()
