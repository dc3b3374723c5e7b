"""The command-line entry: `python -m sealsim`, `python -m sealsim.cli` and the
`sealsim` console script.

Each command runs in a short-lived process.  At exit, the interpreter's
finalization runs full cyclic-GC passes over every tracked object, most
of them made by importing numpy and sealsim, which costs tens of
milliseconds per command.  Frozen objects are skipped by every
collection, so the entry freezes them once after the imports and again
when the command returns.  The collector stays enabled, so cycles made
during the command are still collected; importing this module, or
calling `cli.main` in-process, leaves the collector as it was.

`numpy.random` imports `secrets`, whose `hmac` imports `_hashlib`, and
that maps OpenSSL's libcrypto (about 3.5 MiB) into every Monte Carlo
command, though no command hashes with it.  So before it imports the
CLI, the entry marks `_hashlib` as missing, and `hmac` and `hashlib`
fall back to CPython's built-in hash modules.  It does so only where all
of those are present, since `hashlib` logs an error for each one it
lacks, and never replaces an `_hashlib` already imported.

numpy's OpenBLAS starts a pool of worker threads when numpy is imported,
one per core unless a BLAS thread variable says otherwise.  No command
needs it (the largest matrix product is 16 x 16), and the idle pool adds
about 40% to a command's CPU time.  So the entry defaults those
variables to 1 before the CLI imports numpy; a value the user set wins.
The package imports its modules lazily, and `cli.py` hands over to
`run()` before its own imports, so numpy is not loaded before `run()`
whichever of the three starts the command.
"""

import gc
import os
import sys
from importlib.util import find_spec

# the built-in modules behind hashlib's constructors when _hashlib is missing
_BUILTIN_HASHES = (
    ("_md5", "_sha1", "_sha2", "_sha3", "_blake2")
    if sys.version_info >= (3, 12)
    else ("_md5", "_sha1", "_sha256", "_sha512", "_sha3", "_blake2")
)


def run() -> None:
    """Run the command in sys.argv and exit with its code."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if all(find_spec(name) is not None for name in _BUILTIN_HASHES):
        sys.modules.setdefault("_hashlib", None)
    from .cli import main

    gc.freeze()
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
