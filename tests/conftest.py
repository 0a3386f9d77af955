import random
import traceback

import pytest

from hcie import rsa, transfer

# 512-bit keys keep the suite fast; anything security-sensitive about key
# size is exercised explicitly where it matters (acceptance criterion 10
# uses 1024-bit keys).


@pytest.fixture(scope="session")
def recipient_pair():
    return rsa.keygen(512, random.Random(0x52454350))


@pytest.fixture(scope="session")
def sender_pair():
    return rsa.keygen(512, random.Random(0x53454E44))


@pytest.fixture(scope="session")
def other_pair():
    return rsa.keygen(512, random.Random(0x4F544852))


@pytest.fixture(scope="session")
def textbook_priv():
    # the classic worked example: p=61, q=53, n=3233, e=17, d=2753
    return rsa.RsaPrivateKey(n=3233, e=17, d=2753, p=61, q=53)


@pytest.fixture(autouse=True)
def no_unexpected_server_errors(monkeypatch):
    """Fail a test in whose process a TransferServer called ``handle_error``.

    ``socketserver`` hands it every exception that escapes a session or the
    accepting thread and only prints a traceback, so such a bug would pass
    unseen.  A test that expects a call patches ``handle_error`` itself.
    Servers run in a subprocess (the CLI's ``recv``) are not covered.
    """
    errors = []
    monkeypatch.setattr(
        transfer.TransferServer, "handle_error",
        lambda self, conn, addr: errors.append(traceback.format_exc()),
    )
    yield
    if errors:
        pytest.fail("TransferServer.handle_error was called:\n" + "".join(errors))
