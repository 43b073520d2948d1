"""Runs the allocation daemon for the ``serve-mixed`` workload.

    python3 perfbench/launcher.py --socket S --fleet ha8k:100000:SEED [--spans F]

Calls ``repro.service.daemon.serve`` unchanged.  With ``--spans``,
SIGUSR1 installs the daemon-side span wrappers (so the benchmark can
time an untraced stretch first and a traced one after it), and once
the daemon has drained the recorded spans are written to ``F``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from spans import DAEMON_SITES, Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--fleet", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    from repro.service.daemon import serve

    tracer = Tracer()
    if args.spans:

        def _start_tracing(_signum, _frame) -> None:
            if not tracer.installed:
                tracer.install(DAEMON_SITES)

        signal.signal(signal.SIGUSR1, _start_tracing)
    try:
        serve(socket_path=args.socket, fleets=(args.fleet,), quiet=True)
    finally:
        tracer.remove()
        if args.spans:
            Path(args.spans).write_text(json.dumps(tracer.spans))
    return 0


if __name__ == "__main__":
    sys.exit(main())
