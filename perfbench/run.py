#!/usr/bin/env python3
"""End-to-end benchmark of hcie: seal, open and send, with a traced mode.

    python3 perfbench/run.py --workload small-files --seed 1 --seconds 20 --trace 0

Run from the repository root.  The benchmark imports hcie from ``src/``,
makes its payloads from ``--seed``, and runs a closed loop with one
operation in flight.  Each round seals and serializes every payload, parses
and opens every envelope, and sends every payload with
``transfer.send_file`` to a receiver in its own process (``hcie recv``,
started through ``cli.main``).  Every output is checked by ``check.py``,
which imports nothing from hcie, outside the timed spans.

Times are scaled by a machine-speed probe run before every operation (see
README.md), because this CPU's speed drifts by tens of percent over tens of
seconds.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import random
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import check
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Working files stay inside the checkout (keys, payload files, the inbox).
WORK_ROOT = ROOT / ".perfbench-work"
HOST = "127.0.0.1"


@dataclass(frozen=True)
class Workload:
    count: int
    min_size: int
    max_size: int
    dim_log2: int
    #: bytes the speed probe multiplies by a key of this workload's dimension
    probe_matmul_bytes: int
    #: probe time, in seconds, that defines reference machine speed
    probe_ref_s: float


MIB = 1 << 20

# small-files: two private RSA operations per file dominate (sign, decrypt_seed).
# bulk: the 16x16 Hill kernel dominates.  narrow-key: the same sizes with a
# 2x2 key, where SHA-256, padding copies, serialize/parse and frame I/O weigh
# more.  Payload sizes are fixed per workload, spread evenly over
# [min_size, max_size) in a fixed order; the seed picks the contents, the
# session seeds and the padding fill.  Sizes stay fixed because they decide
# how the program's large buffers fall in memory: on narrow-key, open_ms moved
# by ~18% between seeds whose sizes differed by under 1/16 of a slice, while
# repeated runs of one seed agreed within ~1.5%.
WORKLOADS = {
    "small-files": Workload(48, 0, 4096, dim_log2=4, probe_matmul_bytes=64 * 1024,
                            probe_ref_s=0.004),
    "bulk": Workload(12, 1 * MIB, 4 * MIB, dim_log2=4, probe_matmul_bytes=512 * 1024,
                     probe_ref_s=0.013),
    "narrow-key": Workload(12, 1 * MIB, 4 * MIB, dim_log2=1, probe_matmul_bytes=512 * 1024,
                           probe_ref_s=0.006),
}

RSA_BITS = 1024
#: Keys come from fixed seeds, so set-up does the same work on every --seed;
#: payloads, session seeds and padding fill come from --seed.
KEY_SEEDS = {"recipient": 0x52454350, "sender": 0x53454E44}
SETUP_REPEATS = 3
RECEIVER_START_S = 60.0
RECEIVER_STOP_S = 10.0

#: Each time is scaled by the median of the probes within this many probes.
PROBE_WINDOW = 4

Op = Tuple[float, float, int]  # (start, seconds, payload bytes)


class SpeedProbe:
    """A fixed mix of the machine's work, timed between operations.

    A 1024-bit modular exponentiation (the RSA side), a SHA-256 pass and a
    uint8 matmul by a key of the workload's dimension (the Hill side).  It
    imports nothing from hcie, so a change to the package cannot change it.
    A time t measured while the probe takes p seconds is reported as
    t * ref_s / p.
    """

    def __init__(self, wl: Workload) -> None:
        rng = random.Random(0x70726F6265)
        dim = 1 << wl.dim_log2
        self._n = rng.getrandbits(1024) | 1 << 1023 | 1
        self._x = rng.getrandbits(1023)
        self._e = rng.getrandbits(384) | 1 << 383
        self._buf = rng.randbytes(512 * 1024)
        self._blocks = np.frombuffer(rng.randbytes(wl.probe_matmul_bytes),
                                     dtype=np.uint8).reshape(-1, dim)
        self._key = np.frombuffer(rng.randbytes(dim * dim), dtype=np.uint8).reshape(dim, dim)
        self._ref_s = wl.probe_ref_s
        self.stamps: List[float] = []
        self.times: List[float] = []

    def run(self) -> None:
        start = time.perf_counter()
        pow(self._x, self._e, self._n)
        hashlib.sha256(self._buf).digest()
        self._blocks @ self._key.T
        self.stamps.append(start)
        self.times.append(time.perf_counter() - start)

    def scale(self, moment: float) -> float:
        """Factor taking a time measured at ``moment`` to reference speed."""
        i = bisect.bisect(self.stamps, moment)
        near = self.times[max(0, i - PROBE_WINDOW) : i + PROBE_WINDOW]
        return self._ref_s / statistics.median(near)

    def scaled(self, ops: List[Op]) -> List[float]:
        return [seconds * self.scale(start) for start, seconds, _ in ops]


def make_payloads(wl: Workload, seed: int) -> List[bytes]:
    width = (wl.max_size - wl.min_size) / wl.count
    sizes = [wl.min_size + int((i + 0.5) * width) for i in range(wl.count)]
    random.Random(wl.count).shuffle(sizes)
    rng = random.Random(f"payloads:{seed}")
    return [rng.randbytes(size) for size in sizes]


class Receiver:
    """``hcie recv`` in its own process, through the launcher script."""

    def __init__(self, work: Path, trace: bool) -> None:
        self.stats_path = work / "recv-stats.json"
        cmd = [
            sys.executable, str(BENCH_DIR / "recv_launcher.py"), str(self.stats_path),
            "1" if trace else "0", "recv", "--port", "0", "--out-dir", str(work / "inbox"),
            "--key", str(work / "recipient.key"), "--trust", str(work / "trust"),
        ]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], RECEIVER_START_S)
        line = self.proc.stdout.readline() if ready else ""
        match = re.match(r"listening on port (\d+)", line)
        if not match:
            self.stop()
            raise RuntimeError(f"receiver did not start: {line!r}")
        self.port = int(match.group(1))

    def stop(self) -> Optional[dict]:
        """Stop the receiver, wait for it, and return its stats (or None)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=RECEIVER_STOP_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        if self.proc.returncode != 0 or not self.stats_path.exists():
            return None
        return json.loads(self.stats_path.read_text())


class Bench:
    def __init__(self, hcie: Dict[str, object], wl: Workload, seed: int, work: Path,
                 trace: bool) -> None:
        self.hcie, self.wl, self.seed, self.work, self.trace = hcie, wl, seed, work, trace
        self.probe = SpeedProbe(wl)
        self.ops: Dict[str, List[Op]] = {"seal": [], "open": [], "send": []}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.receiver: Optional[Receiver] = None
        self.rng = random.Random(f"ops:{seed}")
        self.check_rng = random.Random(f"check:{seed}")

    # -- set-up ---------------------------------------------------------

    def set_up(self) -> float:
        """Keys, inputs and receiver; returns the set-up time, scaled."""
        rsa = self.hcie["rsa"]
        for _ in range(3):
            self.probe.run()
        start = time.perf_counter()
        if self.work.exists():
            shutil.rmtree(self.work)
        for sub in ("outbox", "inbox", "trust"):
            (self.work / sub).mkdir(parents=True)
        keys = {}
        for role, key_seed in KEY_SEEDS.items():
            pub, priv = rsa.keygen(RSA_BITS, random.Random(key_seed))
            (self.work / f"{role}.pub").write_bytes(rsa.serialize_key(pub))
            (self.work / f"{role}.key").write_bytes(rsa.serialize_key(priv))
            keys[role] = pub, priv
        (self.work / "trust" / "sender.pub").write_bytes(rsa.serialize_key(keys["sender"][0]))
        self.recipient_pub, self.recipient_priv = keys["recipient"]
        self.sender_pub, self.sender_priv = keys["sender"]
        self.payloads = make_payloads(self.wl, self.seed)
        self.paths = []
        for i, payload in enumerate(self.payloads):
            path = self.work / "outbox" / f"p{i:03d}.r0"
            path.write_bytes(payload)
            self.paths.append(path)
        self.receiver = Receiver(self.work, self.trace)
        seconds = time.perf_counter() - start
        for _ in range(3):
            self.probe.run()
        self.check_recipient = check.read_key_file((self.work / "recipient.key").read_bytes())
        self.check_sender = check.read_key_file((self.work / "sender.pub").read_bytes())
        return seconds * self.probe.scale(start)

    def stop_receiver(self) -> Optional[dict]:
        receiver, self.receiver = self.receiver, None
        return receiver.stop() if receiver else None

    # -- operations -----------------------------------------------------

    def _fail(self, what: str, record: bool) -> None:
        self.failed += record
        print(f"{what} failed:\n{traceback.format_exc()}", file=sys.stderr)

    def _reject(self, err: check.CheckError) -> None:
        if len(self.errors) < 5:
            print(f"check failed: {err}", file=sys.stderr)
        self.errors.append(str(err))

    def seal(self, i: int, record: bool) -> Optional[bytes]:
        envelope = self.hcie["envelope"]
        payload = self.payloads[i]
        self.attempted += record
        self.probe.run()
        start = time.perf_counter()
        try:
            data = envelope.serialize(envelope.seal(
                payload, self.recipient_pub, self.sender_priv, self.sender_pub,
                self.rng, self.wl.dim_log2))
        except Exception:
            self._fail(f"seal of payload {i}", record)
            return None
        seconds = time.perf_counter() - start
        if record:
            self.ops["seal"].append((start, seconds, len(payload)))
        try:
            check.check_envelope(data, payload, dim_log2=self.wl.dim_log2,
                                 recipient=self.check_recipient, sender=self.check_sender,
                                 rng=self.check_rng)
        except check.CheckError as err:
            self._reject(err)
        return data

    def open(self, i: int, data: Optional[bytes], record: bool) -> None:
        envelope = self.hcie["envelope"]
        self.attempted += record
        if data is None:
            self.failed += record
            return
        self.probe.run()
        start = time.perf_counter()
        try:
            plaintext = envelope.open_envelope(
                envelope.parse(data), self.recipient_priv, self.sender_pub)
        except Exception:
            self._fail(f"open of payload {i}", record)
            return
        seconds = time.perf_counter() - start
        if record:
            self.ops["open"].append((start, seconds, len(self.payloads[i])))
        try:
            check.check_same("opened plaintext", plaintext, self.payloads[i])
        except check.CheckError as err:
            self._reject(err)

    def send(self, i: int, round_no: int, record: bool) -> None:
        transfer = self.hcie["transfer"]
        payload = self.payloads[i]
        # A fresh name per send: the receiver never sees a name twice.
        path = self.paths[i].with_suffix(f".r{round_no}")
        os.replace(self.paths[i], path)
        self.paths[i] = path
        self.attempted += record
        self.probe.run()
        start = time.perf_counter()
        try:
            ack = transfer.send_file(
                HOST, self.receiver.port, path, self.recipient_pub, self.sender_priv,
                self.sender_pub, self.rng, self.wl.dim_log2)
        except Exception:
            self._fail(f"send of payload {i}", record)
            return
        seconds = time.perf_counter() - start
        if record:
            self.ops["send"].append((start, seconds, len(payload)))
        received = self.work / "inbox" / path.name
        try:
            check.check_ack(ack.digest, payload)
            if not received.is_file():
                raise check.CheckError(f"the receiver wrote no file {received.name}")
            check.check_same("received file", received.read_bytes(), payload)
        except check.CheckError as err:
            self._reject(err)
        received.unlink(missing_ok=True)

    def round(self, round_no: int, record: bool = True) -> None:
        envelopes = [self.seal(i, record) for i in range(self.wl.count)]
        for i, data in enumerate(envelopes):
            self.open(i, data, record)
        del envelopes
        for i in range(self.wl.count):
            self.send(i, round_no, record)

    # -- untimed memory pass ----------------------------------------------

    def peak_per_byte(self) -> Dict[str, float]:
        """tracemalloc peak over each call, summed, per payload byte."""
        envelope, hill = self.hcie["envelope"], self.hcie["hill"]
        peaks = {"seal": 0, "open": 0, "encrypt_stream": 0, "parse": 0}

        def measure(name, fn, *args):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = fn(*args)
            peaks[name] += tracemalloc.get_traced_memory()[1] - base
            return result

        def seal_bytes(payload):
            return envelope.serialize(envelope.seal(
                payload, self.recipient_pub, self.sender_priv, self.sender_pub,
                self.rng, self.wl.dim_log2))

        def open_bytes(data):
            return envelope.open_envelope(envelope.parse(data), self.recipient_priv,
                                          self.sender_pub)

        tracemalloc.start()
        try:
            for payload in self.payloads:
                data = measure("seal", seal_bytes, payload)
                check.check_same("opened plaintext", measure("open", open_bytes, data), payload)
                if self.trace:
                    key = hill.derive_key(self.rng.randbytes(32), self.wl.dim_log2)
                    measure("encrypt_stream", hill.encrypt_stream, key, payload)
                    measure("parse", envelope.parse, data)
                del data
        finally:
            tracemalloc.stop()
        total = sum(len(p) for p in self.payloads)
        return {name: peak / total for name, peak in peaks.items()}


# -- metrics -------------------------------------------------------------

def end_to_end(bench: Bench, setup_s: float, peaks: Dict[str, float],
               recv_stats: dict) -> Dict[str, Tuple[float, str]]:
    m = {"setup_s": (setup_s, "s")}
    for kind in ("seal", "open", "send"):
        ops = bench.ops[kind]
        times = bench.probe.scaled(ops)
        m[f"{kind}_ms"] = (statistics.median(times) * 1e3, "ms")
        # send's p90 follows the receiver's fsync tail on disk and repeats far
        # worse than its median (10.6% against 2.1% on small-files), so only
        # seal and open report one.
        if kind != "send":
            m[f"{kind}_ms_p90"] = (statistics.quantiles(times, n=10)[8] * 1e3, "ms")
        m[f"{kind}_mb_s"] = (sum(nbytes for _, _, nbytes in ops) / sum(times) / 1e6, "MB/s")
    m["seal_peak_b_per_b"] = (peaks["seal"], "B/B")
    m["open_peak_b_per_b"] = (peaks["open"], "B/B")
    m["recv_rss_mib"] = (recv_stats["max_rss_kib"] / 1024, "MiB")
    return m


#: (reported layer, span name, statistics besides calls).  Receiver spans
#: carry the prefix "recv:".  ms/us: whole call; self_ms/wait_ms: the call
#: minus the traced calls inside it; mb_s: bytes handled over self time.
LAYER_REPORT = (
    ("hill.derive_key", "hill.derive_key", ("us",)),
    ("hill.encrypt_stream", "hill.encrypt_stream", ("self_ms", "mb_s")),
    ("hill.decrypt_stream", "hill.decrypt_stream", ("self_ms", "mb_s")),
    ("hill.pad", "hill.pad", ("mb_s",)),
    ("hill.unpad", "hill.unpad", ("mb_s",)),
    ("rsa.sign", "rsa.sign", ("ms", "self_ms")),
    ("rsa.verify", "rsa.verify", ("ms", "self_ms")),
    ("rsa.encrypt_seed", "rsa.encrypt_seed", ("ms",)),
    ("rsa.decrypt_seed", "rsa.decrypt_seed", ("ms",)),
    ("rsa.sha256", "rsa.sha256", ("mb_s",)),
    ("envelope.seal", "envelope.seal", ("self_ms",)),
    ("envelope.open_envelope", "envelope.open_envelope", ("self_ms",)),
    ("envelope.serialize", "envelope.serialize", ("mb_s",)),
    ("envelope.parse", "envelope.parse", ("mb_s",)),
    ("transfer.send_file", "transfer.send_file", ("wait_ms",)),
    ("recv.read_frame", "recv:transfer.read_frame", ("mb_s",)),
    ("recv.parse", "recv:envelope.parse", ("mb_s",)),
    ("recv.open_envelope", "recv:envelope.open_envelope", ("ms", "self_ms")),
    ("recv.write_file", "recv:transfer._write_atomic", ("ms",)),
    ("recv.session", "recv:transfer.TransferServer._session", ("ms", "self_ms")),
)
_STAT_UNITS = {"us": "us", "ms": "ms", "self_ms": "ms", "wait_ms": "ms", "mb_s": "MB/s"}


def per_layer(bench: Bench, spans: List[tracing.Span], rounds: int, peaks: Dict[str, float],
              window: Tuple[float, float]) -> Dict[str, Tuple[float, str]]:
    agg: Dict[str, List[float]] = {}
    for name, start, total, own, nbytes in spans:
        factor = bench.probe.scale(start)
        acc = agg.setdefault(name, [0, 0.0, 0.0, 0])
        acc[0] += 1
        acc[1] += total * factor
        acc[2] += own * factor
        acc[3] += nbytes
    m = {}
    for layer, span, stats in LAYER_REPORT:
        calls, total, own, nbytes = agg[span]
        values = {"us": total / calls * 1e6, "ms": total / calls * 1e3,
                  "self_ms": own / calls * 1e3, "wait_ms": own / calls * 1e3,
                  "mb_s": nbytes / own / 1e6}
        m[f"{layer}.calls"] = (calls / rounds, "count/round")
        for stat in stats:
            m[f"{layer}.{stat}"] = (values[stat], _STAT_UNITS[stat])
    m["hill.encrypt_stream.peak_b_per_b"] = (peaks["encrypt_stream"], "B/B")
    m["envelope.parse.peak_b_per_b"] = (peaks["parse"], "B/B")

    # The self times of the spans inside each seal (open) operation add up
    # to the part of the operation's time the traced layers cover.
    local = sorted((start, own) for name, start, _, own, _ in spans if ":" not in name)
    starts = [start for start, _ in local]
    for kind in ("seal", "open"):
        ops = bench.ops[kind]
        covered = sum(own for start, seconds, _ in ops
                      for _, own in local[bisect.bisect_left(starts, start):
                                          bisect.bisect(starts, start + seconds)])
        timed = sum(seconds for _, seconds, _ in ops)
        m[f"trace.{kind}_self_sum_pct"] = (100 * covered / timed, "%")

    op_seconds = sum(seconds for ops in bench.ops.values() for _, seconds, _ in ops)
    m["trace.overhead_pct"] = (100 * len(spans) * tracing.wrapper_cost_s() / op_seconds, "%")
    lo, hi = window
    probes = [t for s, t in zip(bench.probe.stamps, bench.probe.times) if lo <= s <= hi]
    m["machine.probe_ms"] = (statistics.median(probes) * 1e3, "ms")
    return m


# -- entry point ---------------------------------------------------------

def run(args, hcie: Dict[str, object]) -> dict:
    wl = WORKLOADS[args.workload]
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    bench = Bench(hcie, wl, args.seed, work, args.trace == 1)
    try:
        setups = []
        for repeat in range(SETUP_REPEATS):
            setups.append(bench.set_up())
            if repeat < SETUP_REPEATS - 1:
                bench.stop_receiver()
        # One untimed round: caches fill and the allocator sees every size.
        bench.round(0, record=False)

        tracer = tracing.Tracer()
        if bench.trace:
            tracer.install(hcie, tracing.SENDER_LAYERS)
        gc.collect()
        loop_start = time.perf_counter()
        rounds = 0
        while time.perf_counter() - loop_start < args.seconds:
            rounds += 1
            bench.round(rounds)
        loop_end = time.perf_counter()
        tracer.uninstall()

        recv_stats = bench.stop_receiver()
        if recv_stats is None:
            raise RuntimeError("receiver exited without its stats")
        peaks = bench.peak_per_byte()
        if bench.trace:
            spans = tracer.spans + [
                (f"recv:{name}", start, total, own, nbytes)
                for name, start, total, own, nbytes in recv_stats["spans"]
                if loop_start <= start <= loop_end]
            metrics = per_layer(bench, spans, rounds, peaks, (loop_start, loop_end))
        else:
            metrics = end_to_end(bench, statistics.median(setups), peaks, recv_stats)
    finally:
        bench.stop_receiver()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    raw = {kind: statistics.median(s for _, s, _ in ops) * 1e3
           for kind, ops in bench.ops.items()}
    print(f"{args.workload} seed {args.seed}: {rounds} rounds; raw medians "
          + ", ".join(f"{kind} {ms:.3f} ms" for kind, ms in raw.items())
          + f", probe {statistics.median(bench.probe.times) * 1e3:.3f} ms"
          + f"; setup_s samples {[round(s, 4) for s in setups]}", file=sys.stderr)
    return {
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through run()'s clean-up


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "hcie" / "__init__.py").is_file():
        print(f"error: no hcie package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from hcie import envelope, hill, rsa, transfer

    hcie = {"envelope": envelope, "hill": hill, "rsa": rsa, "transfer": transfer}
    print(json.dumps(run(args, hcie)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
