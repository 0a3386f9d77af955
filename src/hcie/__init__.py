"""Hybrid-encryption file transfer toolkit.

Hill-style block cipher over Z_256 with tensor-product keys, textbook RSA
for seed transport and signatures, a byte-exact envelope format, and a
small TCP protocol for moving sealed files.  See the module docstrings for
the security caveats; nothing here is hardened cryptography.
"""
