"""Traced network worker: ``python3 worker_entry.py SPANS_OUT worker ...``.

Installs the benchmark's layer wrappers, runs the ``repro.dse`` command
line with the remaining arguments, and writes the worker's spans to
``SPANS_OUT`` when it exits.  ``PYTHONPATH`` must name the package's
source directory, as for ``python -m repro.dse``.
"""

import sys

from tracing import PATCHES, Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    from repro.dse.__main__ import main as cli_main

    tracer = Tracer()
    tracer.install(PATCHES)
    try:
        return cli_main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
