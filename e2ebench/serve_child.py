"""Run ``repro serve`` with the layer wrappers installed inside the process.

Usage: ``python serve_child.py SPANS_OUT <repro CLI args...>``

Tracing starts on.  ``SIGUSR2`` uninstalls the wrappers and ``SIGUSR1``
installs them again; each switch is acknowledged with a line on stdout
(``e2ebench-trace off`` / ``on``), so the load generator knows when the switch
has happened.  On exit the recorded spans are written to ``SPANS_OUT``
as :func:`tracer.dump_spans` rows.
"""

from __future__ import annotations

import json
import signal
import sys

import layers
from tracer import Tracer, dump_spans


def main(argv: list[str]) -> int:
    from repro.cli.main import main as repro_main

    out, args = argv[0], argv[1:]
    tracer = Tracer(layers.targets())

    def switch(on: bool) -> None:
        if on and not tracer.installed:
            tracer.install()
        elif not on and tracer.installed:
            tracer.uninstall()
        print(f"e2ebench-trace {'on' if on else 'off'}", flush=True)

    signal.signal(signal.SIGUSR1, lambda *_: switch(True))
    signal.signal(signal.SIGUSR2, lambda *_: switch(False))
    tracer.install()
    try:
        code = repro_main(args)
    finally:
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(dump_spans(tracer.spans), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
