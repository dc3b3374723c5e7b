"""The command-line entry: `python -m sealsim` and the `sealsim` console script.

Each command runs in a short-lived process.  At exit, the interpreter's
finalization runs full cyclic-GC passes over every tracked object, most
of them made by importing numpy and sealsim, which costs tens of
milliseconds per command.  Frozen objects are skipped by every
collection, so the entry freezes them once after the imports and again
when the command returns.  The collector stays enabled, so cycles made
during the command are still collected; importing this module, or
calling `cli.main` in-process, leaves the collector as it was.
"""

import gc
import sys

from .cli import main


def run() -> None:
    """Run the command in sys.argv and exit with its code."""
    gc.freeze()
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
