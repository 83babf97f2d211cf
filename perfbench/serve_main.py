"""Traced ``repro serve``: wraps the layers, then starts the server exactly
as ``repro serve --port 0 --workers 2 --timeout 0`` does.

    python3 -u -m perfbench.serve_main <spans path>

On SIGINT the server shuts down as usual; the spans recorded in this
process are then written to ``<spans path>``.
"""

from __future__ import annotations

import sys

from perfbench.layers import install
from perfbench.spans import Tracer

SERVE_ARGS = ["serve", "--port", "0", "--workers", "2", "--timeout", "0"]


def main(argv) -> int:
    tracer = Tracer()
    install(tracer)
    from repro.cli import main as repro_main

    rc = repro_main(SERVE_ARGS)
    tracer.dump(argv[1])
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
