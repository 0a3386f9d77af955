"""A standing mutation check on the Hill stream kernel.

Each mutant is one edit to the syntax tree of ``hcie/hill.py`` inside
``_shears`` or ``_apply``: an arithmetic or shift operator swapped, a
comparison flipped, an integer constant plus 1, the byte orders ``"<u2"``
and ``">u2"`` exchanged, or an ``if`` without ``else`` switched off.  It is
compiled into a fresh module, no file written, and its ``encrypt_stream``
and ``decrypt_stream`` run against the dense matrices.  A mutant that raises
or gives other bytes is killed at its first mismatch.  The survivors must
be exactly the equivalent mutants listed below, so that an edit the tests
cannot see fails here.
"""

import ast
import random
import sys
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from hcie import hill, ring
from hcie.hill import HillKey
from hcie.ring import BYTE_RING
from test_hill import GL22, boundary_lengths, dense, lift

SOURCE = Path(hill.__file__).read_text()
MUTATED_FUNCTIONS = ("_shears", "_apply")

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

#: Mutants that give the same bytes, keyed by (source line, edit, the edit's
#: index among equal edits on that line), each with why it changes nothing.
EQUIVALENT = {
    ("step = CHUNK_BYTES // n", "FloorDiv -> Mult", 1):
        "one chunk for the whole payload: same bytes, but a payload-sized "
        "scratch, which tests/test_buffers.py::TestPeakMemory bounds",
    ('planes = own[: chunk.nbytes].view("<u2").reshape(lanes, -1)', "1 -> 2", 1):
        "reshape(lanes, -2): numpy reads any negative size as the one unknown",
    ('planes = own[: chunk.nbytes].view("<u2").reshape(lanes, -1)', "<u2 -> >u2", 1):
        "the planes' byte order is invisible: the shears and copies act on "
        "values, and the multiply-adds pair the same byte of two lanes",
    ("x = planes.view(np.uint8).reshape(outer, 2, -1)", "1 -> 2", 1):
        "reshape(outer, 2, -2): numpy reads any negative size as the one unknown",
    ("t = chunk.reshape(2, outer, -1)[0]", "1 -> 2", 1):
        "reshape(2, outer, -2): numpy reads any negative size as the one unknown",
    ("t = chunk.reshape(2, outer, -1)[0]", "0 -> 1", 1):
        "the second half of the chunk's rows is as free a scratch as the first",
}


def _edits(node):
    """(description, attribute, new value) for every single edit of ``node``."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in OPERATOR_SWAPS:
        new = OPERATOR_SWAPS[type(node.op)]
        yield f"{type(node.op).__name__} -> {new.__name__}", "op", new()
    if isinstance(node, ast.Compare) and type(node.ops[0]) in COMPARISON_FLIPS:
        new = COMPARISON_FLIPS[type(node.ops[0])]
        yield f"{type(node.ops[0]).__name__} -> {new.__name__}", "ops", [new()]
    if isinstance(node, ast.Constant) and type(node.value) is int:
        yield f"{node.value} -> {node.value + 1}", "value", node.value + 1
    if isinstance(node, ast.Constant) and node.value in BYTE_ORDERS:
        yield f"{node.value} -> {BYTE_ORDERS[node.value]}", "value", BYTE_ORDERS[node.value]
    if isinstance(node, ast.If) and not node.orelse:
        yield "if -> if False", "test", ast.Constant(False)


def mutants():
    """(key, compiled module code) for every single edit in the named functions."""
    lines = SOURCE.splitlines()
    tree = ast.parse(SOURCE)
    seen = Counter()
    functions = [f for f in tree.body if getattr(f, "name", None) in MUTATED_FUNCTIONS]
    assert [f.name for f in functions] == list(MUTATED_FUNCTIONS)
    for function in functions:
        for node in ast.walk(function):
            for description, attr, value in _edits(node):
                line = lines[node.lineno - 1].strip()
                seen[line, description] += 1
                original = getattr(node, attr)
                setattr(node, attr, value)
                code = compile(ast.fix_missing_locations(tree), "<mutant hill.py>", "exec")
                setattr(node, attr, original)
                yield (line, description, seen[line, description]), code


def load(code):
    module = types.ModuleType("hcie.hill_mutant")
    module.__package__ = "hcie"
    # dataclass looks its module up while it builds HillKey
    sys.modules[module.__name__] = module
    try:
        exec(code, module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def oracle_cases():
    """(key, payload, dense ciphertext), cheapest first, so most mutants die early."""
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
    return [(key, data, dense(key.forward, hill.pad(data, key.dim))) for key, data in short + long]


def killed(module, cases):
    with np.errstate(all="ignore"):
        for key, payload, ct in cases:
            try:
                if module.encrypt_stream(key, payload) != ct:
                    return True
                if module.decrypt_stream(key, ct) != payload:
                    return True
            except Exception:
                return True
    return False


@pytest.mark.slow
def test_every_kernel_mutant_is_killed_or_listed_as_equivalent():
    cases = oracle_cases()
    assert not killed(hill, cases)
    results = {key: killed(load(code), cases) for key, code in mutants()}
    survivors = {key for key, dead in results.items() if not dead}
    print(f"{len(results)} mutants, {len(survivors)} survived")
    assert survivors == set(EQUIVALENT), sorted(survivors ^ set(EQUIVALENT))
