"""``repro serve`` with the benchmark's layer wrappers installed.

    python3 perfbench/server_entry.py --spans SPANS.json [repro serve args]

The traced serve_mixed run starts the server through this entry point.
It installs the same wrappers as a traced batch pass plus the server's
own, runs ``repro.flow.cli.main(["serve", ...])`` until SIGTERM drains the
server, then removes every wrapper and writes the spans it kept in
memory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--spans", required=True,
                        help="where to write the recorded spans")
    args, serve_args = parser.parse_known_args(argv)
    from repro.flow.cli import main as repro_main

    tracer = layers.Tracer()
    layers.install(tracer, server=True)
    try:
        return repro_main(["serve", *serve_args])
    finally:
        left = tracer.uninstall()
        Path(args.spans).write_text(json.dumps(
            {"spans": tracer.snapshot(), "left_wrapped": left}))


if __name__ == "__main__":
    sys.exit(main())
