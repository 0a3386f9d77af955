"""Spans around hcie's layer functions, installed from outside the package.

hcie's modules reach each other through module attributes looked up at call
time (``hill.derive_key``, ``rsa.sha256``, ``envelope_mod.seal``, and the
module globals ``pad``, ``sha256``, ``read_frame`` ...), so replacing such an
attribute with a timing wrapper puts every call through the wrapper without
changing the package.  Spans are kept in memory as
``(name, start, total_s, self_s, nbytes)``; a span's self time is its
duration minus the durations of the spans it directly contains.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple


def _arg(i: int) -> Callable:
    return lambda args, result: len(args[i])


def _result(args, result) -> int:
    return len(result)


#: (span name, hcie module, attribute path, bytes the call handles)
Layer = Tuple[str, str, str, Optional[Callable]]

#: Layers on the seal and open paths, wrapped in both processes.
CORE_LAYERS: Sequence[Layer] = (
    ("hill.derive_key", "hill", "derive_key", None),
    ("hill.encrypt_stream", "hill", "encrypt_stream", _arg(1)),
    ("hill.decrypt_stream", "hill", "decrypt_stream", _arg(1)),
    ("hill.pad", "hill", "pad", _arg(0)),
    ("hill.unpad", "hill", "unpad", _arg(0)),
    ("rsa.sign", "rsa", "sign", _arg(1)),
    ("rsa.verify", "rsa", "verify", _arg(1)),
    ("rsa.encrypt_seed", "rsa", "encrypt_seed", None),
    ("rsa.decrypt_seed", "rsa", "decrypt_seed", None),
    ("rsa.sha256", "rsa", "sha256", _arg(0)),
    ("envelope.seal", "envelope", "seal", _arg(0)),
    ("envelope.open_envelope", "envelope", "open_envelope", _result),
    ("envelope.serialize", "envelope", "serialize", _result),
    ("envelope.parse", "envelope", "parse", _arg(0)),
)

SENDER_LAYERS: Sequence[Layer] = CORE_LAYERS + (
    ("transfer.send_file", "transfer", "send_file", None),
)

RECEIVER_LAYERS: Sequence[Layer] = CORE_LAYERS + (
    ("transfer.read_frame", "transfer", "read_frame", lambda args, frame: len(frame.payload)),
    ("transfer._write_atomic", "transfer", "_write_atomic", _arg(2)),
    ("transfer.TransferServer._session", "transfer", "TransferServer._session", None),
)

Span = Tuple[str, float, float, float, int]


class Tracer:
    """Records a span per call of each installed layer, from any thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    def install(self, modules: Dict[str, object], layers: Sequence[Layer]) -> None:
        for name, module, attr, size in layers:
            owner = modules[module]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            setattr(owner, leaf, self.wrap(name, original, size))
            self._undo.append((owner, leaf, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)

    def wrap(self, name: str, fn: Callable, size: Optional[Callable]) -> Callable:
        spans, local, clock = self.spans, self._local, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                total = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += total
            spans.append((name, start, total, total - child, size(args, result) if size else 0))
            return result

        return traced


def wrapper_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one traced call adds over a bare call (best of ``repeats``)."""

    def noop():
        return b""

    traced = Tracer().wrap("noop", noop, _result)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return best
