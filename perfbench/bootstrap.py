"""Start ``easyview`` with the benchmark's layer tracing installed.

Usage::

    python perfbench/bootstrap.py TRACE_OUT <easyview arguments...>

Installs the wrappers of :mod:`tracing` (spans are written to
``TRACE_OUT`` when the process exits), then calls the normal CLI entry
point with the remaining arguments.
"""

import sys

import tracing


def main() -> int:
    tracing.install(sys.argv[1])
    from repro.cli import main as cli_main
    return cli_main(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
