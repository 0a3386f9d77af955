"""
Why hybrid: the throughput comparison
=====================================

Encrypting a whole file with RSA means one modular exponentiation per
117-byte chunk; the hybrid scheme pays for exactly one RSA encapsulation
and one signature, then runs everything else through the matrix cipher.
This demo times both (plus the bare Hill cipher) at a couple of sizes and
writes the CSV the `hcie bench` command would produce.

Sizes are kept small so the demo finishes in seconds; run
`hcie bench --sizes 10485760 --out bench.csv` for the 10 MiB figure.
"""

import random
import tempfile
from pathlib import Path

from hcie import bench

sizes = [64 * 1024, 512 * 1024]
records = bench.run_bench(sizes, random.Random(31337))

print(f"{'scheme':<10} {'bytes':>9} {'seconds':>9} {'MB/s':>9}")
for rec in records:
    print(
        f"{rec.scheme:<10} {rec.payload_bytes:>9} "
        f"{rec.elapsed_seconds:>9.4f} {rec.throughput_mb_s:>9.2f}"
    )

for size in sizes:
    per_size = {r.scheme: r for r in records if r.payload_bytes == size}
    ratio = per_size["rsa_only"].elapsed_seconds / per_size["hybrid"].elapsed_seconds
    print(f"\nat {size} bytes the hybrid seal is {ratio:.0f}x faster than chunked RSA")

with tempfile.TemporaryDirectory(prefix="hcie-demo-") as tmp:
    csv_path = Path(tmp) / "bench.csv"
    bench.write_csv(records, csv_path)
    print("\nCSV written to", csv_path)
    print(csv_path.read_text().splitlines()[0])
    assert len(csv_path.read_text().splitlines()) == 1 + len(records)

# Every timed repetition above was also round-trip verified: a record is
# only emitted after its ciphertext decrypted back to the exact payload.
