"""Serving-tier child process of the end-to-end benchmark.

Runs one :class:`~repro.serving.server.RecommenderServer`, configured as
the program ships it (default worker count), over a saved artifact, apart
from the load generator's process.  Protocol with the
parent: once the server answers, print one JSON line ``{"host", "port",
"pid"}`` on stdout; then serve until a line (or EOF) arrives on stdin, stop
the server and exit.

With ``--trace-dir`` the timing wrappers are installed *before* the
workers fork, so every worker inherits them and dumps its spans there on
shutdown; the front-end dumps its own after the server stopped.

Usage (from the repository root)::

    python3 benchmarks/e2e/serve_child.py ARTIFACT [--trace-dir DIR]
"""

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("artifact")
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args()

    recorder = None
    if args.trace_dir:
        import tracing

        recorder = tracing.SpanRecorder("server")
        tracing.install(tracing.SERVER_TARGETS, recorder)
        tracing.install_worker_dump(recorder, args.trace_dir)

    from repro.serving.server import RecommenderServer

    server = RecommenderServer(args.artifact)
    server.start()
    try:
        host, port = server.address
        print(json.dumps({"host": host, "port": port, "pid": os.getpid()}),
              flush=True)
        sys.stdin.readline()
    finally:
        server.stop()
        if recorder is not None:
            recorder.dump(args.trace_dir)


if __name__ == "__main__":
    main()
