import csv
import random

import pytest

from hcie import bench
from hcie.errors import BenchVerificationError


@pytest.fixture(scope="module")
def small_run():
    # small sizes keep this a functional test, not a measurement; the
    # measured properties live in the acceptance suite
    return bench.run_bench([2048, 4096], random.Random(41))


class TestRunBench:
    def test_three_records_per_size(self, small_run):
        assert len(small_run) == 6
        assert [r.scheme for r in small_run] == [
            "hill_only", "rsa_only", "hybrid", "hill_only", "rsa_only", "hybrid",
        ]
        assert [r.payload_bytes for r in small_run] == [2048, 2048, 2048, 4096, 4096, 4096]

    def test_throughput_is_the_stated_division(self, small_run):
        for rec in small_run:
            assert rec.throughput_mb_s == rec.payload_bytes / rec.elapsed_seconds / 1e6
            assert rec.elapsed_seconds > 0

    def test_sizes_must_be_measurable(self):
        with pytest.raises(ValueError):
            bench.run_bench([])
        with pytest.raises(ValueError):
            bench.run_bench([1023])

    def test_payload_is_seed_deterministic(self):
        assert bench.payload_for(4096) == bench.payload_for(4096)
        assert bench.payload_for(4096) != bench.payload_for(4095) + b"\x00"


class TestVerification:
    def test_corrupted_run_is_discarded(self):
        payload = b"x" * 64
        with pytest.raises(BenchVerificationError):
            bench._timed_runs(
                encrypt=lambda: payload,
                verify=lambda produced: produced[:-1] + b"?",
                payload=payload,
                repetitions=1,
            )

    def test_honest_run_passes(self):
        payload = b"y" * 64
        med = bench._timed_runs(
            encrypt=lambda: payload,
            verify=lambda produced: produced,
            payload=payload,
            repetitions=3,
        )
        assert med >= 0

    def test_identical_repetitions_are_decrypted_once(self):
        payload = b"z" * 64
        decrypted = []
        bench._timed_runs(
            encrypt=lambda: payload,
            verify=lambda produced: decrypted.append(produced) or produced,
            payload=payload,
            repetitions=3,
        )
        assert decrypted == [payload]

    def test_changed_repetition_is_decrypted(self):
        outputs = iter([b"good", b"evil"])
        with pytest.raises(BenchVerificationError):
            bench._timed_runs(
                encrypt=lambda: next(outputs),
                verify=lambda produced: produced if produced == b"good" else b"????",
                payload=b"good",
                repetitions=2,
            )

    def test_rsa_only_repetitions_repeat_their_chunks(self, monkeypatch):
        decrypt = bench._rsa_decrypt_chunks
        calls = []

        def counting(priv, chunks):
            calls.append(chunks)
            return decrypt(priv, chunks)

        monkeypatch.setattr(bench, "_rsa_decrypt_chunks", counting)
        bench.run_bench([2048], random.Random(43))
        assert len(calls) == 1

    def test_rsa_chunking_round_trips(self, recipient_pair):
        pub, priv = recipient_pair
        payload = bench.payload_for(2000)
        chunks = bench._rsa_encrypt_chunks(pub, payload, random.Random(42))
        assert all(len(c) == pub.byte_length() for c in chunks)
        assert bench._rsa_decrypt_chunks(priv, chunks) == payload

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda ct, pub: bytes([ct[0] ^ 0x01]) + ct[1:],  # flipped byte
            lambda ct, pub: ct[:-1],  # truncated
            lambda ct, pub: (pub.n + 1).to_bytes(pub.byte_length(), "big"),  # >= n
            lambda ct, pub: pow(1, pub.e, pub.n).to_bytes(pub.byte_length(), "big"),  # block = 1
        ],
        ids=["flipped byte", "truncated", "not below n", "no v1.5 header"],
    )
    def test_rsa_only_rejects_corrupted_chunk(self, recipient_pair, corrupt):
        pub, priv = recipient_pair
        chunks = bench._rsa_encrypt_chunks(pub, bench.payload_for(2000), random.Random(44))
        chunks[7] = corrupt(chunks[7], pub)
        with pytest.raises(BenchVerificationError):
            bench._rsa_decrypt_chunks(priv, chunks)


class TestCsv:
    def test_round_trip(self, small_run, tmp_path):
        path = tmp_path / "bench.csv"
        bench.write_csv(small_run, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows == [
            [r.scheme, str(r.payload_bytes), repr(r.elapsed_seconds), repr(r.throughput_mb_s)]
            for r in small_run
        ]

    def test_header_is_exact(self, small_run, tmp_path):
        path = tmp_path / "bench.csv"
        bench.write_csv(small_run, path)
        first = path.read_text().splitlines()[0]
        assert first == "scheme,payload_bytes,elapsed_seconds,throughput_mb_s"

    def test_row_count_rule(self, small_run, tmp_path):
        path = tmp_path / "bench.csv"
        bench.write_csv(small_run, path)
        rows = path.read_text().splitlines()
        assert len(rows) == 1 + 3 * 2  # header + 3 schemes x 2 sizes
