"""Throughput benchmark: Hill-only vs chunked-RSA-only vs the hybrid seal.

Each scheme encrypts the same fixed-seed payload; the median of three timed
repetitions is reported, and a repetition only counts after its output has
been decrypted and compared back to the payload, or is byte-identical to
an earlier output that was.  Results go to CSV with one row per (scheme,
size).

The RSA-only baseline is what the hybrid construction exists to avoid:
v1.5-padding every 117-byte chunk into its own 1024-bit modular
exponentiation.  Its padding fill comes from a generator seeded by the
payload size, fresh in each repetition, so every repetition produces the
same chunks and only the first needs decrypting.  Verification decrypts
with CRT (and gmpy2 when installed) purely to keep the harness quick; the
timed region always runs the package's own primitives.
"""

from __future__ import annotations

import csv
import random
import statistics
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from . import envelope as envelope_mod
from . import hill, rsa
from .errors import BenchVerificationError

try:
    import gmpy2

    def _powmod(base: int, exp: int, mod: int) -> int:
        return int(gmpy2.powmod(base, exp, mod))

except ImportError:  # pragma: no cover - exercised only without gmpy2
    _powmod = pow

SCHEMES = ("hill_only", "rsa_only", "hybrid")
CSV_HEADER = ["scheme", "payload_bytes", "elapsed_seconds", "throughput_mb_s"]
MIN_PAYLOAD = 1024

#: Payloads are expanded from this fixed seed so separate runs are comparable.
PAYLOAD_SEED = 0x48434945
_BENCH_HILL_SEED = bytes(range(32))


@dataclass(frozen=True)
class BenchRecord:
    scheme: str
    payload_bytes: int
    elapsed_seconds: float
    throughput_mb_s: float


def payload_for(size: int) -> bytes:
    return random.Random(PAYLOAD_SEED).randbytes(size)


def _rsa_chunk_len(pub: rsa.RsaPublicKey) -> int:
    # v1.5 layout 00 02 <fill >= 8> 00 <data> needs 11 bytes of overhead
    return pub.byte_length() - 11


def _rsa_encrypt_chunks(
    pub: rsa.RsaPublicKey, payload: bytes, rng: Optional[random.Random]
) -> List[bytes]:
    k = pub.byte_length()
    step = _rsa_chunk_len(pub)
    out = []
    for i in range(0, len(payload), step):
        chunk = payload[i : i + step]
        fill_len = k - 3 - len(chunk)
        fill = rsa._nonzero_bytes(fill_len, rng)
        block = b"\x00\x02" + fill + b"\x00" + chunk
        x = int.from_bytes(block, "big")
        out.append(pow(x, pub.e, pub.n).to_bytes(k, "big"))
    return out


def _rsa_decrypt_chunks(priv: rsa.RsaPrivateKey, chunks: Sequence[bytes]) -> bytes:
    # verification only; CRT halves the exponent work
    dp = priv.d % (priv.p - 1)
    dq = priv.d % (priv.q - 1)
    q_inv = pow(priv.q, -1, priv.p)
    k = priv.byte_length()
    parts = []
    for ct in chunks:
        c = int.from_bytes(ct, "big")
        m1 = _powmod(c % priv.p, dp, priv.p)
        m2 = _powmod(c % priv.q, dq, priv.q)
        h = (q_inv * (m1 - m2)) % priv.p
        block = (m2 + h * priv.q).to_bytes(k, "big")
        if block[:2] != b"\x00\x02":
            raise BenchVerificationError("rsa_only verification hit a bad block")
        sep = block.find(b"\x00", 2)
        if sep == -1:
            raise BenchVerificationError("rsa_only verification hit a bad block")
        parts.append(block[sep + 1 :])
    return b"".join(parts)


def _timed_runs(
    encrypt: Callable[[], object],
    verify: Callable[[object], bytes],
    payload: bytes,
    repetitions: int,
) -> float:
    """Median time of ``encrypt`` over the repetitions, each one verified.

    An output equal to the last verified one is verified by that
    comparison; any other is decrypted and compared to the payload.
    """
    elapsed = []
    verified = None
    for _ in range(repetitions):
        start = time.perf_counter()
        produced = encrypt()
        elapsed.append(time.perf_counter() - start)
        if produced != verified:
            if verify(produced) != payload:
                raise BenchVerificationError("round-trip verification failed; run discarded")
            verified = produced
    return statistics.median(elapsed)


def run_bench(
    sizes: Sequence[int],
    rng: Optional[random.Random] = None,
    repetitions: int = 3,
    rsa_bits: int = 1024,
    dim_log2: int = 4,
) -> List[BenchRecord]:
    """Time all three schemes at each payload size.

    Returns one record per (size, scheme), schemes in the fixed order
    hill_only, rsa_only, hybrid.  Every repetition is round-trip verified
    before its timing is used; a failed verification aborts the whole run.
    """
    if not sizes:
        raise ValueError("need at least one payload size")
    for size in sizes:
        if size < MIN_PAYLOAD:
            raise ValueError(f"payload sizes below {MIN_PAYLOAD} bytes are not measurable")

    hill_key = hill.derive_key(_BENCH_HILL_SEED, dim_log2)
    recipient_pub, recipient_priv = rsa.keygen(rsa_bits, rng)
    sender_pub, sender_priv = rsa.keygen(rsa_bits, rng)

    records = []
    for size in sizes:
        payload = payload_for(size)

        hill_med = _timed_runs(
            lambda: hill.encrypt_stream(hill_key, payload),
            lambda ct: hill.decrypt_stream(hill_key, ct),
            payload,
            repetitions,
        )
        # hybrid is timed right after hill_only, not after the minutes-long
        # rsa_only leg, so that machine-speed drift does not enter their ratio
        hybrid_med = _timed_runs(
            lambda: envelope_mod.seal(
                payload, recipient_pub, sender_priv, sender_pub, rng, dim_log2
            ),
            lambda env: envelope_mod.open_envelope(env, recipient_priv, sender_pub),
            payload,
            repetitions,
        )
        rsa_med = _timed_runs(
            lambda: _rsa_encrypt_chunks(
                recipient_pub, payload, random.Random(f"rsa_only fill {size}")
            ),
            lambda chunks: _rsa_decrypt_chunks(recipient_priv, chunks),
            payload,
            repetitions,
        )
        records += [
            _record("hill_only", size, hill_med),
            _record("rsa_only", size, rsa_med),
            _record("hybrid", size, hybrid_med),
        ]
    return records


def _record(scheme: str, size: int, elapsed: float) -> BenchRecord:
    return BenchRecord(
        scheme=scheme,
        payload_bytes=size,
        elapsed_seconds=elapsed,
        throughput_mb_s=size / elapsed / 1e6,
    )


def write_csv(records: Sequence[BenchRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for rec in records:
            writer.writerow(
                [rec.scheme, rec.payload_bytes, repr(rec.elapsed_seconds), repr(rec.throughput_mb_s)]
            )


def read_csv(path) -> List[BenchRecord]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header!r}")
        return [
            BenchRecord(
                scheme=row[0],
                payload_bytes=int(row[1]),
                elapsed_seconds=float(row[2]),
                throughput_mb_s=float(row[3]),
            )
            for row in reader
        ]
