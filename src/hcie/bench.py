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
same chunks and only the first needs decrypting.  Chunks are built and
parsed by ``rsa.encrypt_v15``/``rsa.decrypt_v15``, the same code that
encapsulates an envelope's seed.
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
from .errors import BenchVerificationError, DecapsulationError

CSV_HEADER = ["scheme", "payload_bytes", "elapsed_seconds", "throughput_mb_s"]
MIN_PAYLOAD = 1024
REPETITIONS = 3
RSA_BITS = 1024

#: Payloads are expanded from this fixed seed so separate runs are comparable.
PAYLOAD_SEED = 0x48434945
_BENCH_HILL_SEED = bytes(range(32))


@dataclass(frozen=True)
class BenchRecord:
    scheme: str
    payload_bytes: int
    elapsed_seconds: float

    @property
    def throughput_mb_s(self) -> float:
        return self.payload_bytes / self.elapsed_seconds / 1e6


def payload_for(size: int) -> bytes:
    return random.Random(PAYLOAD_SEED).randbytes(size)


def _rsa_encrypt_chunks(
    pub: rsa.RsaPublicKey, payload: bytes, rng: Optional[random.Random]
) -> List[bytes]:
    step = pub.byte_length() - rsa.V15_OVERHEAD
    return [rsa.encrypt_v15(pub, payload[i : i + step], rng) for i in range(0, len(payload), step)]


def _rsa_decrypt_chunks(priv: rsa.RsaPrivateKey, chunks: Sequence[bytes]) -> bytes:
    try:
        return b"".join(rsa.decrypt_v15(priv, ct) for ct in chunks)
    except DecapsulationError:
        raise BenchVerificationError("rsa_only verification hit a bad block") from None


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


def run_bench(sizes: Sequence[int], rng: Optional[random.Random] = None) -> List[BenchRecord]:
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

    hill_key = hill.derive_key(_BENCH_HILL_SEED, hill.DEFAULT_DIM_LOG2)
    recipient_pub, recipient_priv = rsa.keygen(RSA_BITS, rng)
    sender_pub, sender_priv = rsa.keygen(RSA_BITS, rng)

    records = []
    for size in sizes:
        payload = payload_for(size)

        hill_med = _timed_runs(
            lambda: hill.encrypt_stream(hill_key, payload),
            lambda ct: hill.decrypt_stream(hill_key, ct),
            payload,
            REPETITIONS,
        )
        # hybrid is timed right after hill_only, not after the minutes-long
        # rsa_only leg, so that machine-speed drift does not enter their ratio
        hybrid_med = _timed_runs(
            lambda: envelope_mod.seal(payload, recipient_pub, sender_priv, sender_pub, rng),
            lambda env: envelope_mod.open_envelope(env, recipient_priv, sender_pub),
            payload,
            REPETITIONS,
        )
        rsa_med = _timed_runs(
            lambda: _rsa_encrypt_chunks(
                recipient_pub, payload, random.Random(f"rsa_only fill {size}")
            ),
            lambda chunks: _rsa_decrypt_chunks(recipient_priv, chunks),
            payload,
            REPETITIONS,
        )
        records += [
            BenchRecord("hill_only", size, hill_med),
            BenchRecord("rsa_only", size, rsa_med),
            BenchRecord("hybrid", size, hybrid_med),
        ]
    return records


def write_csv(records: Sequence[BenchRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for rec in records:
            writer.writerow(
                [rec.scheme, rec.payload_bytes, repr(rec.elapsed_seconds), repr(rec.throughput_mb_s)]
            )
