"""A standing mutation check on the Hill stream functions, on the
decoders of outside input and on the checks that open an envelope.

Each mutant is one edit to the syntax tree of one module, inside one of the
functions or methods (``Class.method``) named for it in ``TARGETS``: an
arithmetic or shift operator swapped, a comparison flipped, an integer
constant plus 1, the byte orders ``"<u2"`` and ``">u2"`` exchanged, or an
``if`` without ``else`` switched off.  It is compiled into a fresh module,
no file written, and run against that module's cases.  ``hill``'s stream
functions run against the dense matrices and a table of malformed padding.
``rsa``'s v1.5 decoders, ``transfer``'s frame, name and FILE payload
decoders and ``envelope.parse`` run against fixed tables of hostile inputs.
``envelope.open_envelope`` runs on sealed envelopes with one check failing
each, ``Envelope.__post_init__`` on fields at and past their bounds, and
the receiver's ``TransferServer._session`` on whole sessions held in
memory, against a receiver that trusts two senders.  Every case gives the
value a call must return, or the exception type and message it must
raise.  A mutant that gives other bytes or another error is killed at its
first mismatch.  The survivors of each module must be exactly the
equivalent mutants listed for it, so that an edit the tests cannot see
fails here.
"""

import ast
import dataclasses
import io
import random
import struct
import sys
import tempfile
import types
from collections import Counter, namedtuple
from pathlib import Path

import numpy as np
import pytest

from hcie import envelope, hill, ring, rsa, transfer
from hcie.errors import (
    ConnectionClosedError,
    DecapsulationError,
    DimensionError,
    EnvelopeFormatError,
    FingerprintMismatchError,
    FrameTooLargeError,
    PaddingError,
    PlaintextLengthError,
    ProtocolError,
    SignatureError,
)
from hcie.hill import HillKey
from hcie.ring import BYTE_RING
from test_hill import GL22, boundary_lengths, dense, identity_key, lift

OPERATOR_SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr,
    ast.MatMult: ast.Mult,
}
COMPARISON_FLIPS = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE, ast.GtE: ast.Lt,
    ast.Gt: ast.LtE, ast.LtE: ast.Gt,
}
BYTE_ORDERS = {"<u2": ">u2", ">u2": "<u2"}

#: Mutants that give the same results, keyed by (function, source line,
#: edit, the edit's index among equal edits on that line), each with why it
#: changes nothing.
EQUIVALENT = {
    "hill": {
        ("_apply", "step = CHUNK_BYTES // n", "FloorDiv -> Mult", 1):
            "one chunk for the whole payload: same bytes, but a payload-sized "
            "scratch, which tests/test_buffers.py::TestPeakMemory bounds",
        ("_apply", 'planes = own[: chunk.nbytes].view("<u2").reshape(lanes, -1)', "1 -> 2", 1):
            "reshape(lanes, -2): numpy reads any negative size as the one unknown",
        ("_apply", 'planes = own[: chunk.nbytes].view("<u2").reshape(lanes, -1)',
         "<u2 -> >u2", 1):
            "the planes' byte order is invisible: the shears and copies act on "
            "values, and the multiply-adds pair the same byte of two lanes",
        ("_apply", "x = planes.view(np.uint8).reshape(outer, 2, -1)", "1 -> 2", 1):
            "reshape(outer, 2, -2): numpy reads any negative size as the one unknown",
        ("_apply", "t = chunk.reshape(2, outer, -1)[0]", "1 -> 2", 1):
            "reshape(2, outer, -2): numpy reads any negative size as the one unknown",
        ("_apply", "t = chunk.reshape(2, outer, -1)[0]", "0 -> 1", 1):
            "the second half of the chunk's rows is as free a scratch as the first",
        ("encrypt_stream",
         "out = np.frombuffer(buf, dtype=np.uint8, offset=headroom).reshape(-1, n)", "1 -> 2", 1):
            "reshape(-2, n): numpy reads any negative size as the one unknown",
        ("decrypt_stream", "blocks = np.frombuffer(ciphertext, dtype=np.uint8).reshape(-1, n)",
         "1 -> 2", 1):
            "reshape(-2, n): numpy reads any negative size as the one unknown",
        ("decrypt_stream", "out = np.frombuffer(buf, dtype=np.uint8).reshape(-1, n)", "1 -> 2", 1):
            "reshape(-2, n): numpy reads any negative size as the one unknown",
    },
    "rsa": {},
    "transfer": {},
    "envelope": {},
}

#: What a call gave, or must give, when it raises.
Raises = namedtuple("Raises", "type message")


def _edits(node):
    """(description, attribute, new value) for every single edit of ``node``."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in OPERATOR_SWAPS:
        new = OPERATOR_SWAPS[type(node.op)]
        yield f"{type(node.op).__name__} -> {new.__name__}", "op", new()
    if isinstance(node, ast.Compare) and type(node.ops[0]) in COMPARISON_FLIPS:
        new = COMPARISON_FLIPS[type(node.ops[0])]
        yield f"{type(node.ops[0]).__name__} -> {new.__name__}", "ops", [new(), *node.ops[1:]]
    if isinstance(node, ast.Constant) and type(node.value) is int:
        yield f"{node.value} -> {node.value + 1}", "value", node.value + 1
    if isinstance(node, ast.Constant) and node.value in BYTE_ORDERS:
        yield f"{node.value} -> {BYTE_ORDERS[node.value]}", "value", BYTE_ORDERS[node.value]
    if isinstance(node, ast.If) and not node.orelse:
        yield "if -> if False", "test", ast.Constant(False)


def _functions(tree):
    """(name, node) for every function of a module and every method of its
    classes, a method named ``Class.method``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef):
                    yield f"{node.name}.{method.name}", method


def mutants(module, names):
    """(key, compiled module code) for every single edit in the functions
    ``names`` of ``module``."""
    source = Path(module.__file__).read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    seen = Counter()
    functions = [(name, f) for name, f in _functions(tree) if name in names]
    assert sorted(name for name, _ in functions) == sorted(names)
    for name, function in functions:
        for node in ast.walk(function):
            for description, attr, value in _edits(node):
                edit = name, lines[node.lineno - 1].strip(), description
                seen[edit] += 1
                original = getattr(node, attr)
                setattr(node, attr, value)
                code = compile(ast.fix_missing_locations(tree), "<mutant>", "exec")
                setattr(node, attr, original)
                yield (*edit, seen[edit]), code


def load(module, code):
    """A fresh module of the package run from ``code``."""
    fresh = types.ModuleType(f"{module.__name__}_mutant")
    fresh.__package__ = "hcie"
    # dataclass looks its module up while it builds a class
    sys.modules[fresh.__name__] = fresh
    try:
        exec(code, fresh.__dict__)
    finally:
        del sys.modules[fresh.__name__]
    return fresh


def plain(value):
    """A result with its bytes-likes as bytes and its dataclasses, which a
    fresh module defines anew, as tuples of their fields."""
    if isinstance(value, (bytes, bytearray, memoryview)):
        return bytes(value)
    if isinstance(value, tuple):
        return tuple(plain(v) for v in value)
    if dataclasses.is_dataclass(value):
        return tuple(plain(getattr(value, f.name)) for f in dataclasses.fields(value) if f.init)
    return value


def outcome(module, call):
    try:
        return plain(call(module))
    except Exception as exc:
        return Raises(type(exc), str(exc))


def killed(module, cases):
    with np.errstate(all="ignore"):
        return any(outcome(module, call) != expected for call, expected in cases)


def hill_cases(pairs):
    """The dense matrices' bytes, cheapest first so most mutants die early,
    then malformed padding and ciphertext lengths."""
    rng = random.Random("mutants")
    keys = [hill.derive_key(rng.randbytes(32), s) for s in (1, 2, 4, 6)]
    for residues in GL22:
        keys.append(HillKey(factors=(lift(residues, rng),)))
        two = [ring.random_invertible(2, BYTE_RING, rng) for _ in range(2)]
        keys.append(HillKey(factors=(*two, lift(residues, rng))))
        for position in (0, 1):
            factors = [ring.random_invertible(2, BYTE_RING, rng) for _ in range(3)]
            factors[position] = lift(residues, rng)
            keys.append(HillKey(factors=tuple(factors)))
    keys.append(HillKey.from_matrix(ring.random_invertible(3, BYTE_RING, rng)))
    short = [(key, rng.randbytes(length)) for key in keys for length in range(0, 3 * key.dim + 2)]
    long = [(key, rng.randbytes(n)) for key in keys[:4] for n in boundary_lengths(key.dim)]
    cases = []
    for key, data in short + long:
        ct = dense(key.forward, hill.pad(data, key.dim))
        cases.append((lambda m, key=key, data=data: m.encrypt_stream(key, data), ct))
        cases.append((lambda m, key=key, ct=ct: m.decrypt_stream(key, ct), data))
        cases.append((lambda m, key=key, ct=ct: fed(m, key, ct), (data, data)))

    key, data = keys[1], b"headroom"
    cases.append((lambda m: m.encrypt_stream(key, data, 3),
                  bytes(3) + dense(key.forward, hill.pad(data, key.dim))))

    def call(name, *args):
        return lambda m: getattr(m, name)(*args)

    def block_len_error(n):
        return Raises(ValueError, f"block length must be in [1, 255], got {n}")

    invalid = Raises(PaddingError, "invalid padding")
    ragged = Raises(
        PaddingError, "invalid padding: length not a positive multiple of block length"
    )
    cases += [
        (call("pad", b"x", 0), block_len_error(0)),
        (call("pad", b"x", 256), block_len_error(256)),
        (call("pad", b"x", 1), b"x\x01"),
        (call("pad", bytes(254), 255), bytes(254) + b"\x01"),
        (call("pad", bytes(255), 255), bytes(255) + b"\xff" * 255),
        (call("unpad", b"x", 0), block_len_error(0)),
        (call("unpad", bytes(256), 256), block_len_error(256)),
        (call("unpad", b"\x01", 1), b""),
        (call("unpad", bytes(254) + b"\x01", 255), bytes(254)),
        (call("unpad", b"\xff" * 255, 255), b""),
        (call("unpad", b"abcd\x04\x04\x04\x04", 4), b"abcd"),
        (call("unpad", b"a\x03\x03\x03", 4), b"a"),
        (call("unpad", b"", 4), ragged),
        (call("unpad", b"ab\x01", 4), ragged),
        (call("unpad", b"abcd\x01", 4), ragged),
        (call("unpad", b"abc\x00", 4), invalid),  # k = 0
        (call("unpad", b"abc\x05", 4), invalid),  # k > n
        (call("unpad", b"abc\x05\x05\x05\x05\x05", 4), invalid),  # k > n, all k bytes equal
        (call("unpad", b"ab\x01\x02", 4), invalid),  # mismatched pad bytes
        (call("unpad", b"a\x02\x03\x03", 4), invalid),
        (call("decrypt_stream", identity_key(4), b""),
         Raises(DimensionError, "ciphertext length 0 is not a positive multiple of 4")),
        (call("decrypt_stream", identity_key(4), bytes(6)),
         Raises(DimensionError, "ciphertext length 6 is not a positive multiple of 4")),
        (call("decrypt_stream", identity_key(4), bytes(4)), invalid),
        (call("decrypt_stream", identity_key(4), b"abcd" + bytes(3) + b"\x09"), invalid),
        (lambda m: fed(m, identity_key(4), bytes(6)),
         Raises(DimensionError, "ciphertext length 6 is not a positive multiple of 4")),
        (lambda m: fed(m, identity_key(4), b"abcd" + bytes(3) + b"\x09"), invalid),
        (call("decrypt_stream", keys[0], dense(keys[0].forward, hill.pad(data, 2)), refuse),
         Raises(LookupError, "refused")),
    ]
    return cases


def fed(module, key, ct):
    """``decrypt_stream`` on the path that passes each plaintext byte to a
    callback, with the bytes the callback was given."""
    pieces = bytearray()
    return module.decrypt_stream(key, ct, pieces.extend), pieces


def refuse(piece):
    raise LookupError("refused")


def rsa_cases(pairs):
    """v1.5 blocks and seeds, well and badly formed, under the 512-bit key."""
    (pub, priv), *_ = pairs
    k = pub.byte_length()
    rng = random.Random("mutants:rsa")

    def forge(block):
        return pow(int.from_bytes(block, "big"), pub.e, pub.n).to_bytes(k, "big")

    def v15(ct, key=priv):
        return lambda m: m.decrypt_v15(key, ct)

    def seed(ct):
        return lambda m: m.decrypt_seed(priv, ct)

    fail = Raises(DecapsulationError, "decapsulation failed")
    cases = []
    for fill in (0, 7, 8, 9):
        # the data's first zero byte lies past an 8-byte fill
        data = b"\x22" * 8 + bytes(k - 11 - fill)
        block = b"\x00\x02" + b"\x11" * fill + b"\x00" + data
        cases.append((v15(forge(block)), data if fill >= 8 else fail))
    valid = b"\x00\x02" + b"\x11" * 8 + b"\x00" + bytes(range(1, k - 10))
    good = forge(valid)
    faulty = dataclasses.replace(priv, d=priv.d + 2)
    cases += [
        (v15(good), valid[11:]),
        (v15(forge(b"\x00\x02" + b"\x11" * (k - 3) + b"\x00")), b""),
        (v15(forge(b"\x00\x01" + valid[2:])), fail),  # bad type byte
        (v15(forge(b"\x01\x02" + valid[2:])), fail),
        (v15(forge(b"\x00\x02" + b"\x11" * (k - 2))), fail),  # no separator
        (v15(good[:-1]), fail),  # wrong width
        (v15(good + b"\x00"), fail),
        (v15(b"\x00" + good), fail),  # the same value, one byte wider
        (v15(pub.n.to_bytes(k, "big")), fail),  # not below n
        (v15((pub.n + 1).to_bytes(k, "big")), fail),
        (v15(b"\xff" * k), fail),
        (v15(good, faulty), fail),  # the private-key check fails
    ]
    for length in (0, 1, 32, k - 11):
        data = rng.randbytes(length)
        cases.append((v15(rsa.encrypt_v15(pub, data, rng)), data))
    for width in (31, 32, 33):
        data = rng.randbytes(width)
        ct = rsa.encrypt_v15(pub, data, rng)
        cases.append((seed(ct), data if width == 32 else fail))
    cases.append((seed(good), fail))
    return cases


#: The frame limit set on each fresh transfer module, so frames around it
#: stay small.
SMALL_FRAME = 64


def transfer_cases(pairs):
    """File names, FILE payloads and frames from a hostile peer."""

    def name(value):
        return lambda m: m.validate_filename(value)

    def payload(data):
        return lambda m: m.decode_file_payload(data)

    def frame(data):
        def call(m):
            m.MAX_FRAME = SMALL_FRAME
            return m.read_frame(io.BytesIO(data))
        return call

    def named(raw, rest=b""):
        return struct.pack(">H", len(raw)) + raw + rest

    def header(kind, length):
        return struct.pack(">BI", kind, length)

    length_rule = Raises(ProtocolError, "filename must be 1..255 UTF-8 bytes")
    separators = Raises(ProtocolError, "filename must not contain path separators")
    not_utf8 = Raises(ProtocolError, "filename is not valid UTF-8")
    too_short = Raises(ProtocolError, "FILE payload too short")
    shorter = Raises(ProtocolError, "FILE payload shorter than its name field")
    closed = Raises(ConnectionClosedError, "connection closed")
    cases = [
        (name("a"), b"a"),
        (name("résumé.txt"), "résumé.txt".encode()),
        (name("x" * 255), b"x" * 255),
        (name("é" * 127 + "x"), ("é" * 127 + "x").encode()),
        (name(""), length_rule),
        (name("x" * 256), length_rule),
        (name("é" * 128), length_rule),
        (name("a/b"), separators),
        (name("a\\b"), separators),
        (name("a\x00b"), separators),
        (name("."), separators),
        (name(".."), separators),
        (name("..."), b"..."),
        (name("\udcff"), not_utf8),
        (name("a\udcffb"), not_utf8),
        (payload(b""), too_short),
        (payload(b"\x00"), too_short),
        (payload(b"\x00\x00"), length_rule),
        (payload(b"\x00\x00env"), length_rule),
        (payload(named(b"a")), ("a", b"")),
        (payload(named(b"abc", b"env")), ("abc", b"env")),
        (payload(named("é".encode(), b"\x00")), ("é", b"\x00")),
        (payload(named(b"abc")[:-1]), shorter),
        (payload(struct.pack(">H", 0xFFFF) + b"x" * 300), shorter),
        (payload(named(b"\xff\xfe", b"rest")), not_utf8),
        (payload(named(b"\xed\xb3\xbf")), not_utf8),  # an encoded surrogate
        (payload(named(b"a/b", b"env")), separators),
        (payload(named(b".")), separators),
        (payload(named(b"..", b"env")), separators),
        (payload(named(b"x" * 256)), length_rule),
        (frame(b""), closed),
        (frame(b"\x01\x00"), closed),
        (frame(header(1, 0)[:-1]), closed),
        (frame(header(1, 3) + b"ab"), closed),  # short payload
        (frame(header(0, 0)), Raises(ProtocolError, "unknown frame kind 0")),
        (frame(header(6, 0)), Raises(ProtocolError, "unknown frame kind 6")),
        (frame(header(255, 1) + b"x"), Raises(ProtocolError, "unknown frame kind 255")),
        (frame(header(3, SMALL_FRAME + 1) + bytes(SMALL_FRAME + 1)),
         Raises(FrameTooLargeError, f"frame of {SMALL_FRAME + 1} bytes exceeds maximum 64")),
        (frame(header(9, 2**32 - 1)),
         Raises(FrameTooLargeError, f"frame of {2**32 - 1} bytes exceeds maximum 64")),
        (frame(header(3, SMALL_FRAME) + b"f" * SMALL_FRAME), (3, b"f" * SMALL_FRAME)),
        (frame(header(2, 0)), (2, b"")),
        (frame(header(5, 3) + b"errmore"), (5, b"err")),
    ]
    cases += [(frame(header(kind, 1) + b"k"), (kind, b"k")) for kind in range(1, 6)]
    return cases + session_cases(pairs)


class Peer:
    """One connection's stream, in memory: it reads the peer's bytes and
    keeps the replies."""

    def __init__(self, data):
        self._incoming = io.BytesIO(data)
        self.replies = bytearray()

    def read(self, count):
        return self._incoming.read(count)

    def write(self, data):
        self.replies += data

    def flush(self):
        pass


def session_cases(pairs):
    """Whole sessions against a receiver that trusts two senders: the replies
    and the files written, or the error the session raises."""
    (pub, priv), (spub, spriv), (opub, opriv) = pairs
    rng = random.Random("mutants:session")
    table = {rsa.fingerprint(spub): spub, rsa.fingerprint(opub): opub}

    def wire(kind, payload=b""):
        return struct.pack(">BI", kind, len(payload)) + payload

    def file(name, env):
        raw = name.encode()
        blob = env if isinstance(env, bytes) else bytes(envelope.serialize(env))
        return wire(3, struct.pack(">H", len(raw)) + raw + blob)

    def session(*frames):
        def call(m):
            m.MAX_FRAME = transfer.MAX_FRAME  # the frame cases lower it
            peer = Peer(b"".join(frames))
            with tempfile.TemporaryDirectory() as out:
                receiver = types.SimpleNamespace(
                    _recipient_priv=priv, _lookup=table.get, _out_dir=Path(out)
                )
                m.TransferServer._session(receiver, peer)
                written = {p.name: p.read_bytes() for p in Path(out).iterdir()}
            return bytes(peer.replies), written
        return call

    def received(data, name):
        return wire(2) + wire(4, b"\x00" + rsa.sha256(data)), {name: data}

    hello = wire(1, b"hciv1")
    first, second = b"from the first sender", b"from the second"
    env = envelope.seal(first, pub, spriv, spub, rng, 2)
    return [
        (session(hello, file("a.txt", env)), received(first, "a.txt")),
        (session(hello, file("b", envelope.seal(second, pub, opriv, opub, rng, 1))),
         received(second, "b")),
        (session(hello, file("empty", envelope.seal(b"", pub, spriv, spub, rng, 6))),
         received(b"", "empty")),
        (session(file("a.txt", env)), Raises(ProtocolError, "expected HELLO, got kind 3")),
        (session(wire(1, b"hciv0"), file("a.txt", env)), Raises(ProtocolError, "version")),
        (session(hello, hello), Raises(ProtocolError, "expected FILE, got kind 1")),
        (session(hello), Raises(ConnectionClosedError, "connection closed")),
        (session(hello, file("..", env)),
         Raises(ProtocolError, "filename must not contain path separators")),
        (session(hello, file("a.txt", b"HCIE")), Raises(EnvelopeFormatError, "truncated header")),
        # signed by the receiver's own key, which it does not trust as a sender
        (session(hello, file("a.txt", envelope.seal(first, pub, priv, pub, rng, 2))),
         Raises(ProtocolError, "unknown sender")),
        # sealed to the second sender instead of the receiver
        (session(hello, file("a.txt", envelope.seal(first, opub, spriv, spub, rng, 2))),
         Raises(DecapsulationError, "decapsulation failed")),
        # the second sender's fingerprint on the first sender's signature
        (session(hello, file("a.txt", dataclasses.replace(
            env, sender_fingerprint=rsa.fingerprint(opub)))),
         Raises(SignatureError, "signature verification failed")),
    ]


def envelope_cases(pairs):
    """A sealed envelope cut at every byte, and with one bad field each."""
    (pub, _), (spub, spriv), _ = pairs
    env = envelope.seal(b"hostile", pub, spriv, spub, random.Random("mutants:env"), 1)
    data = bytes(envelope.serialize(env))
    k = pub.byte_length()
    fields = [("header", 40), ("seed length field", 4), ("encapsulated seed", k),
              ("signature length field", 4), ("signature", spub.byte_length()),
              ("length fields", 16), ("ciphertext", len(env.ciphertext))]

    def parse(blob):
        return lambda m: m.parse(blob)

    def bad(message):
        return Raises(EnvelopeFormatError, message)

    cases = [(parse(data), plain(env)), (parse(bytearray(data)), plain(env))]
    end = 0
    for what, size in fields:
        cases += [(parse(data[:cut]), bad(f"truncated {what}")) for cut in range(end, end + size)]
        end += size
    assert end == len(data)
    cases += [
        (parse(b"HCIF" + data[4:]), bad("bad magic b'HCIF'")),
        (parse(data[:4] + b"\x00" + data[5:]), bad("unsupported version 0")),
        (parse(data[:4] + b"\x02" + data[5:]), bad("unsupported version 2")),
        (parse(data[:6] + b"\x00\x01" + data[8:]), bad("reserved field must be zero")),
        (parse(data[:6] + b"\x80\x00" + data[8:]), bad("reserved field must be zero")),
        (parse(data + b"\x00"), bad("trailing data after ciphertext")),
        (parse(data[:5] + b"\x00" + data[6:]), bad("dim_log2 0 out of range")),
        (parse(data[:5] + b"\x07" + data[6:]), bad("dim_log2 7 out of range")),
    ]
    return cases + open_cases(pairs) + field_cases()


def open_cases(pairs):
    """A sealed envelope, opened whole and with one check failing each."""
    (pub, priv), (spub, spriv), (opub, opriv) = pairs
    rng = random.Random("mutants:open")
    data = b"opened only whole"
    env = envelope.seal(data, pub, spriv, spub, rng, 1)
    # one 2-byte block that decrypts to b"a\x00": no padding is 0 bytes long
    key = hill.derive_key(rsa.decrypt_seed(priv, env.encapsulated_seed), 1)
    bad_pad = bytes(hill.encrypt_stream(key, b"a\x00")[:2])

    def opened(env, recipient=priv, sender=spub):
        return env, recipient, sender

    def on_path(args, threaded):
        def call(m):
            # two CPUs and no size floor put every open on the threaded path
            m._THREAD_CHUNKS, m._cpus = 0, (lambda: 2) if threaded else (lambda: 1)
            return m.open_envelope(*args)
        return call

    def changed(**fields):
        return dataclasses.replace(env, **fields)

    forged = Raises(SignatureError, "signature verification failed")
    opens = [
        (opened(env), data),
        (opened(envelope.seal(b"", pub, spriv, spub, rng, 6)), b""),
        (opened(env, opriv), Raises(DecapsulationError, "decapsulation failed")),
        (opened(changed(signature=envelope.seal(b"x", pub, spriv, spub, rng, 1).signature)),
         forged),
        (opened(env, sender=opub), forged),
        (opened(changed(plaintext_len=len(data) - 1)),
         Raises(PlaintextLengthError, f"recovered {len(data)} bytes, envelope records 16")),
        (opened(changed(ciphertext=bad_pad, plaintext_len=1)),
         Raises(PaddingError, "invalid padding")),
        (opened(changed(sender_fingerprint=rsa.fingerprint(opub))),
         Raises(FingerprintMismatchError, "sender fingerprint mismatch")),
    ]
    return [(on_path(args, threaded), expected)
            for threaded in (False, True) for args, expected in opens] + thread_rule_cases()


def thread_rule_cases():
    """Payload sizes around the floor of the worker thread, on one and on
    two CPUs."""

    chunks = envelope._THREAD_CHUNKS

    def worth(size, cpus):
        def call(m):
            m._THREAD_CHUNKS, m._cpus = chunks, lambda: cpus
            return m._worth_a_thread(size)
        return call

    floor = chunks * hill.CHUNK_BYTES
    return [
        (worth(floor, 2), False),
        (worth(floor + 1, 2), True),
        (worth(floor + 1, 1), False),
        (worth(4 * floor, 3), True),
    ]


def field_cases():
    """Envelopes built from their fields, each field at and past its bounds."""

    def case(dim_log2, plaintext_len, ct_len, error=None, fingerprint=bytes(32)):
        fields = (dim_log2, fingerprint, b"seed", b"sig", plaintext_len, bytes(ct_len))
        return lambda m: m.Envelope(*fields), error or fields

    wrong_length = Raises(
        EnvelopeFormatError, "ciphertext length is not the padded plaintext length"
    )
    cases = []
    for dim_log2 in (1, 6):
        n = 1 << dim_log2
        for length in (0, n - 1, n, 2 * n + 1):
            padded = (length // n + 1) * n
            cases.append(case(dim_log2, length, padded))
            cases.append(case(dim_log2, length, padded - n, wrong_length))
            cases.append(case(dim_log2, length, padded + n, wrong_length))
    # ciphertexts padded right for their block size, so only the range refuses them
    for dim_log2, ct_len in ((0, 4), (7, 128)):
        out_of_range = Raises(EnvelopeFormatError, f"dim_log2 {dim_log2} out of range")
        cases.append(case(dim_log2, 3, ct_len, out_of_range))
    for width in (31, 33):
        short_or_long = Raises(EnvelopeFormatError, "sender fingerprint must be 32 bytes")
        cases.append(case(1, 3, 4, short_or_long, bytes(width)))
    cases.append(case(1, -1, 0, wrong_length))  # -1 pads to 0 bytes
    return cases


#: Each module, the functions of it that are mutated and its cases.
TARGETS = {
    "hill": (
        hill,
        ("pad", "unpad", "_shears", "_apply", "encrypt_stream", "decrypt_stream",
         "_apply_feeding", "_feed"),
        hill_cases,
    ),
    "rsa": (rsa, ("decrypt_v15", "decrypt_seed"), rsa_cases),
    "transfer": (
        transfer,
        ("_read_exact", "read_frame", "validate_filename", "decode_file_payload",
         "TransferServer._session"),
        transfer_cases,
    ),
    "envelope": (
        envelope,
        ("parse", "open_envelope", "_worth_a_thread", "Envelope.__post_init__"),
        envelope_cases,
    ),
}


def check(target, pairs):
    """Every mutant of ``target`` is killed by its cases or listed as equivalent."""
    module, names, make_cases = TARGETS[target]
    cases = make_cases(pairs)
    source = Path(module.__file__).read_text()
    assert not killed(load(module, compile(source, "<original>", "exec")), cases)
    results = {key: killed(load(module, code), cases) for key, code in mutants(module, names)}
    survivors = {key for key, dead in results.items() if not dead}
    counts = Counter(function for function, *_ in results)
    survived = Counter(function for function, *_ in survivors)
    print(target, {f: f"{counts[f]} mutants, {survived[f]} survived" for f in names})
    assert survivors == set(EQUIVALENT[target]), sorted(survivors ^ set(EQUIVALENT[target]))


@pytest.mark.slow
def test_every_kernel_mutant_is_killed_or_listed_as_equivalent(
    recipient_pair, sender_pair, other_pair
):
    check("hill", (recipient_pair, sender_pair, other_pair))


@pytest.mark.slow
@pytest.mark.parametrize("target", ["rsa", "transfer", "envelope"])
def test_every_decoder_mutant_is_killed_or_listed_as_equivalent(
    target, recipient_pair, sender_pair, other_pair
):
    check(target, (recipient_pair, sender_pair, other_pair))
