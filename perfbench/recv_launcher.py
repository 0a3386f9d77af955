"""Run ``hcie recv`` through ``hcie.cli.main`` for the benchmark.

    python3 perfbench/recv_launcher.py STATS_JSON TRACE recv --port 0 ...

With TRACE 1 the same layer wrappers as the benchmark's own process are
installed before ``cli.main`` runs, plus wrappers on the receiver's frame
reads, file writes and sessions.  Stop it with SIGINT: ``hcie recv`` then
returns, and this script writes STATS_JSON with its peak RSS (VmHWM, KiB)
and the recorded spans.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hcie import cli, envelope, hill, rsa, transfer  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    stats_path, trace, argv = Path(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]
    tracer = tracing.Tracer()
    if trace:
        modules = {"hill": hill, "rsa": rsa, "envelope": envelope, "transfer": transfer}
        tracer.install(modules, tracing.RECEIVER_LAYERS)
    try:
        code = cli.main(argv)
    except KeyboardInterrupt:  # SIGINT before `hcie recv` reached its own handler
        code = 0
    stats = {
        "max_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans,
    }
    stats_path.write_text(json.dumps(stats))
    return code


if __name__ == "__main__":
    sys.exit(main())
