"""Golden-output regression: CLI stdout and exit codes pinned byte for byte.

`tests/data/golden.json` holds the stdout and exit code of every command
below, recorded from an earlier release.  Unlike the claims determinism
test, which compares two runs of the same code, these pins hold across
refactors: a reordered floating-point sum that moves one value by one
ulp changes the 17-digit JSON output and fails here.

The input files are two N=16 overlap matrices, one dense with random
complex entries and one sparse with an all-zero column (message
probabilities of exactly 0 at nu = 1).  To re-record after an
intentional output change, run `python tests/test_golden.py` and review
the diff of golden.json.
"""

import json
import sys
from pathlib import Path

import pytest

from sealsim.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden.json"

RANDOM = "{data}/random16.json"
SPARSE = "{data}/sparse16.json"
MC = ("--trials", "20000")

COMMANDS = (
    ("claims", "--seed", "42", "--trials", "20000"),
    ("sweep", "--format", "json", "--lambda-file", RANDOM),
    ("sweep", "--format", "json", "--lambda-file", SPARSE),
    ("sweep", "--format", "json", "--bits", "0110101", "--theta", "0.3"),
    ("sweep", "--lambda-file", SPARSE),
    ("sweep", "--bits", "0110101", "--theta", "0.3"),
    ("decode-matrix", "--lambda-file", SPARSE, "--nu", "0.37"),
    ("decode-matrix", "--lambda-file", RANDOM, "--nu", "0.5", "--format", "json"),
    ("mc-validate", "--lambda-file", RANDOM, "--message", "3", "--nu", "0.37", *MC),
    ("mc-validate", "--lambda-file", RANDOM, "--message", "3", "--coin-q", "0.37", *MC),
    ("mc-validate", "--lambda-file", SPARSE, "--message", "7", "--nu", "1", *MC),
    ("mc-validate", "--lambda-file", SPARSE, "--message", "7", "--coin-q", "0.9", *MC),
    ("mc-validate", "--bits", "0110", "--theta", "0.5", "--nu", "0.5", *MC),
)


def _argv(command) -> list[str]:
    return [arg.replace("{data}", str(DATA)) for arg in command]


def _key(command) -> str:
    return " ".join(command)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_every_command_is_pinned(golden):
    assert sorted(golden) == sorted(_key(c) for c in COMMANDS)


@pytest.mark.parametrize("command", COMMANDS, ids=_key)
def test_stdout_and_exit_code_match(capsys, golden, command):
    code = main(_argv(command))
    out = capsys.readouterr().out
    expected = golden[_key(command)]
    assert code == expected["exit"]
    assert out == expected["stdout"]


def _record() -> None:
    import contextlib
    import io

    golden = {}
    for command in COMMANDS:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(_argv(command))
        golden[_key(command)] = {"exit": code, "stdout": buffer.getvalue()}
    with open(GOLDEN, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    _record()
    sys.exit(0)
