"""Exception types shared across the package.

Everything raised on purpose by this package derives from :class:`HcieError`,
so callers can catch one type at a boundary (the transfer server does exactly
that).  Errors that are really malformed-input complaints also subclass
``ValueError`` so they behave sanely in generic code.

Each class's ``reason`` is the short label the transfer server sends in an
ERR frame when a session fails with it.
"""


class HcieError(Exception):
    """Base class for all errors raised by this package."""

    reason = "internal error"


class DimensionError(HcieError, ValueError):
    """Operands have incompatible dimensions."""


class NotInvertibleError(HcieError, ValueError):
    """Matrix is not a unit mod 2^m (its determinant is even)."""


class PaddingError(HcieError, ValueError):
    """Block padding is malformed."""

    reason = "invalid padding"


class InsufficientPlaintextError(HcieError, ValueError):
    """No invertible plaintext submatrix exists among the given pairs."""


class InconsistentPairsError(HcieError, ValueError):
    """Plaintext/ciphertext pairs are not explained by a single linear key."""


class KeyFileError(HcieError, ValueError):
    """RSA key file is malformed."""


class DecapsulationError(HcieError):
    """Seed decapsulation failed.

    Deliberately carries no detail about which padding check failed.
    """

    reason = "decapsulation failed"


class RsaFaultError(HcieError):
    """An RSA private-key result failed its check m^e = x (mod n).

    The CRT path computes mod p and mod q separately; a fault in one half
    would let the released value reveal a factor of n, so it is withheld.
    ``sign`` raises this; seed decapsulation reports it as the uniform
    :class:`DecapsulationError` instead.
    """


class EnvelopeFormatError(HcieError, ValueError):
    """Serialized envelope is malformed (bad magic, version, or lengths)."""

    reason = "envelope format"


class OpenError(HcieError):
    """Opening a well-formed envelope failed; no plaintext was recovered."""


class PlaintextLengthError(OpenError):
    """Recovered plaintext length does not match the recorded length."""

    reason = "plaintext length mismatch"


class SignatureError(OpenError):
    """Signature verification over the recovered plaintext failed."""

    reason = "signature verification failed"


class FingerprintMismatchError(OpenError):
    """Envelope fingerprint does not match the supplied sender public key."""

    reason = "signature verification failed"


class ProtocolError(HcieError):
    """The peer violated the wire protocol."""

    @property
    def reason(self) -> str:
        # the message is the reason code ("version", "unknown sender", ...)
        return str(self) or "protocol"


class FrameTooLargeError(ProtocolError):
    """Declared frame length exceeds ``transfer.MAX_FRAME``."""

    reason = "frame too large"


class ConnectionClosedError(ProtocolError):
    """The connection ended mid-frame."""


class ServerBusyError(HcieError):
    """The server already holds ``transfer.MAX_CONNECTIONS`` connections."""

    reason = "server busy"


class TransferError(HcieError):
    """A file transfer failed; ``stage`` names the step that failed."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


class BenchVerificationError(HcieError):
    """A timed benchmark run failed its round-trip verification."""
