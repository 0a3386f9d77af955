"""Command-line front end.

Subcommands mirror the library surface: keygen, seal, open, sign, verify,
send, recv, bench.  Exit codes: 0 success, 1 usage or I/O error, 2
crypto/protocol failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import bench as bench_mod
from . import envelope as envelope_mod
from . import rsa, transfer
from .errors import HcieError, KeyFileError


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage by default; this tool's contract says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_public(path) -> rsa.RsaPublicKey:
    key = rsa.parse_key(Path(path).read_bytes())
    if not isinstance(key, rsa.RsaPublicKey):
        raise KeyFileError(f"{path} holds a private key where a public key is required")
    return key


def _load_private(path) -> rsa.RsaPrivateKey:
    key = rsa.parse_key(Path(path).read_bytes())
    if not isinstance(key, rsa.RsaPrivateKey):
        raise KeyFileError(f"{path} holds a public key where a private key is required")
    return key


def cmd_keygen(args) -> int:
    pub, priv = rsa.keygen(args.bits, insecure=args.insecure)
    pub_path = Path(f"{args.out}.pub")
    key_path = Path(f"{args.out}.key")
    pub_path.write_bytes(rsa.serialize_key(pub))
    key_path.write_bytes(rsa.serialize_key(priv))
    os.chmod(key_path, 0o600)
    print(f"wrote {pub_path} and {key_path}")
    print(f"fingerprint {rsa.fingerprint(pub).hex()}")
    return 0


def cmd_seal(args) -> int:
    plaintext = Path(args.infile).read_bytes()
    recipient = _load_public(args.to)
    sender = _load_private(args.sender)
    env = envelope_mod.seal(
        plaintext, recipient, sender, sender.public(), dim_log2=args.dim_log2
    )
    Path(args.out).write_bytes(envelope_mod.serialize(env))
    print(f"sealed {len(plaintext)} bytes into {args.out}")
    return 0


def cmd_open(args) -> int:
    env = envelope_mod.parse(Path(args.infile).read_bytes())
    recipient = _load_private(args.to)
    sender_pub = _load_public(args.sender)
    plaintext = envelope_mod.open_envelope(env, recipient, sender_pub)
    Path(args.out).write_bytes(plaintext)
    print(f"opened {len(plaintext)} bytes into {args.out}")
    return 0


def cmd_sign(args) -> int:
    priv = _load_private(args.key)
    message = Path(args.infile).read_bytes()
    sig = rsa.sign(priv, message)
    Path(args.out).write_bytes(sig.value.to_bytes(priv.byte_length(), "big"))
    print(f"signed {args.infile} into {args.out}")
    return 0


def cmd_verify(args) -> int:
    pub = _load_public(args.key)
    message = Path(args.infile).read_bytes()
    sig = rsa.Signature(int.from_bytes(Path(args.sig).read_bytes(), "big"))
    if not rsa.verify(pub, message, sig):
        print("error: signature verification failed", file=sys.stderr)
        return 2
    print("signature OK")
    return 0


def cmd_send(args) -> int:
    recipient = _load_public(args.to)
    sender = _load_private(args.sender)
    ack = transfer.send_file(
        args.host, args.port, args.file, recipient, sender, sender.public()
    )
    print(f"transferred {args.file}; server digest {ack.digest.hex()}")
    return 0


def cmd_recv(args) -> int:
    priv = _load_private(args.key)
    trusted = transfer.load_trusted_keys(args.trust)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    server = transfer.TransferServer(args.port, priv, trusted.get, out_dir)
    print(f"listening on port {server.port} ({len(trusted)} trusted senders)", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()
    return 0


def cmd_bench(args) -> int:
    sizes = [int(part) for part in args.sizes.split(",") if part.strip()]
    records = bench_mod.run_bench(sizes)
    bench_mod.write_csv(records, args.out)
    for rec in records:
        print(
            f"{rec.scheme:<9} {rec.payload_bytes:>12} B "
            f"{rec.elapsed_seconds:>10.4f} s {rec.throughput_mb_s:>10.2f} MB/s"
        )
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hcie", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate an RSA key pair")
    p.add_argument("--bits", type=int, default=1024)
    p.add_argument("--out", required=True, help="prefix; writes PREFIX.pub and PREFIX.key")
    p.add_argument("--insecure", action="store_true", help="allow tiny key sizes")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("seal", help="encrypt and sign a file into an envelope")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--to", required=True, help="recipient public key file")
    p.add_argument("--from", dest="sender", required=True, help="sender private key file")
    p.add_argument("--dim-log2", type=int, default=4, help="Hill key dimension exponent")
    p.set_defaults(func=cmd_seal)

    p = sub.add_parser("open", help="decrypt and verify an envelope")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--to", required=True, help="recipient private key file")
    p.add_argument("--from", dest="sender", required=True, help="sender public key file")
    p.set_defaults(func=cmd_open)

    p = sub.add_parser("sign", help="sign a file (raw RSA over its SHA-256)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--key", required=True, help="private key file")
    p.add_argument("--out", required=True, help="signature output file")
    p.set_defaults(func=cmd_sign)

    p = sub.add_parser("verify", help="check a detached signature")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--key", required=True, help="public key file")
    p.add_argument("--sig", required=True, help="signature file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("send", help="seal a file and push it to a server")
    p.add_argument("--host", required=True)
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--file", required=True)
    p.add_argument("--to", required=True, help="recipient public key file")
    p.add_argument("--from", dest="sender", required=True, help="sender private key file")
    p.set_defaults(func=cmd_send)

    p = sub.add_parser("recv", help="receive envelopes over TCP")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--key", required=True, help="recipient private key file")
    p.add_argument("--trust", required=True, help="directory of trusted sender public keys")
    p.set_defaults(func=cmd_recv)

    p = sub.add_parser("bench", help="time hill_only/rsa_only/hybrid and write CSV")
    p.add_argument("--sizes", required=True, help="comma-separated payload sizes in bytes")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except HcieError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
