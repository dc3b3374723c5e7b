"""Mutation testing for sealsim: change one token of a module, run the tests.

A mutant changes one token in one module under src/sealsim:

- a comparison to its boundary neighbour: < and <=, > and >=, == and !=;
- an arithmetic operator, augmented assignments too: + and -, * and /,
  // to *, % to //, ** to *;
- a number: an int to one more and to one less, a float to twice itself
  (0.0 to 1.0).

Mutants run on a copy of the checkout in a temporary directory; the
checkout itself is never written.  The unmutated suite runs there first
and must pass; then `python -m pytest -x -q` runs once per mutant.  A
mutant is killed when the tests fail or time out (three times the
unmutated run, plus 10 s), survives when they pass, and is equivalent
when EQUIVALENT lists it; equivalent mutants are not run.

    python tools/mutate.py --list                      # every site; runs no tests
    python tools/mutate.py src/sealsim/errors.py       # the mutants of one module
    python tools/mutate.py --function chi_square_check src/sealsim/montecarlo.py
    python tools/mutate.py --since main                # the lines changed since a revision

Exit status: 0 when no mutant survives, 1 when one does, 2 when the
unmutated suite fails.  Standard library only; POSIX, since a timed-out
run is killed with its process group.
"""

from __future__ import annotations

import argparse
import ast
import bisect
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sealsim"

# tests/test_mutate.py enumerates the mutants from the sources, so it fails
# on any mutant of a line that EQUIVALENT names, whatever that mutant does
IGNORED_TESTS = ("tests/test_mutate.py",)

# each operator's symbol, and the symbol of its mutant
COMPARISONS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
               ast.Eq: ("==", "!="), ast.NotEq: ("!=", "==")}
ARITHMETIC = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*"),
              ast.FloorDiv: ("//", "*"), ast.Mod: ("%", "//"), ast.Pow: ("**", "*")}

# (module, text on the mutated line around its token, old token, new token, why no test
# can kill it); the text must hold the mutant's token, which tells two mutants of a line apart
EQUIVALENT = (
    ("errors.py", "bad = ~(np.abs(total - 1.0) <= NORM_ATOL)", "<=", "<",
     "a sum near 1 is off 1 by a multiple of 2**-53, which 1e-12 is not: never equal"),
    ("montecarlo.py", "if not abs(float(expected.sum()) - 1.0) <= 1e-9:", "<=", "<",
     "a sum near 1 is off 1 by a multiple of 2**-53, which 1e-9 is not: never equal"),
    ("analysis.py", "guess_probability=float(np.trace(probs)) / probs.shape[0],", "0", "1",
     "a decode matrix from an OverlapMatrix is square, so shape[1] is shape[0]"),
    ("analysis.py", "guess_probability=float(np.trace(probs)) / probs.shape[0],", "0", "-1",
     "a decode matrix from an OverlapMatrix is square, so shape[-1] is shape[0]"),
    ("montecarlo.py", "np.nextafter(edges[1:], 0.0))", "0.0", "1.0",
     "the outcome is monotone in the draw, so testing the draw just above a bin marks a "
     "superset of the bins with a step; every draw still gets the plain search's outcome"),
    ("claims.py", 'worst <= EXACT_ATOL, f"max |fidelity - sum |c|^4|', "<=", "<",
     "claim 6's deviation is a rounding error near 1e-16, never exactly 1e-12"),
    ("claims.py", "ok = abs(value - 1.0 / n) <= EXACT_ATOL", "<=", "<",
     "claim 6's uniform-seal deviation is a rounding error, never exactly 1e-12"),
    ("claims.py", 'worst <= EXACT_ATOL, f"max amplitude deviation', "<=", "<",
     "claim 10's deviation is a rounding error, never exactly 1e-12"),
    ("montecarlo.py", "len(cumulative) - 1).bit_length()", "1", "2",
     "16 N - 1 is odd, so it has the bit length of 16 N - 2"),
)


@dataclass(frozen=True)
class Mutant:
    path: Path  # relative to ROOT
    line: int  # 1-based
    col: int  # 0-based, in characters
    old: str
    new: str
    text: str  # the original line, stripped
    indent: int  # the characters stripped from the start of the line

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.old} -> {self.new}    {self.text}"

    def apply(self, source: str) -> str:
        lines = source.splitlines(keepends=True)
        line = lines[self.line - 1]
        assert line[self.col:self.col + len(self.old)] == self.old, self
        lines[self.line - 1] = line[:self.col] + self.new + line[self.col + len(self.old):]
        return "".join(lines)

    def equivalence(self) -> str | None:
        """The reason EQUIVALENT gives for this mutant, or None."""
        return next((entry[-1] for entry in EQUIVALENT if matches(entry, self)), None)


def matches(entry: tuple[str, str, str, str, str], mutant: Mutant) -> bool:
    """Whether an EQUIVALENT entry names this mutant: its text holds the mutant's token."""
    module, text, old, new, _ = entry
    if (mutant.path.name, mutant.old, mutant.new) != (module, old, new):
        return False
    at = mutant.col - mutant.indent  # the token's column in mutant.text
    return any(mutant.text.startswith(text, start)
               for start in range(max(at + len(old) - len(text), 0), at + 1))


def _number_mutations(value) -> list:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return []
    if isinstance(value, int):
        return [value + 1, value - 1]
    return [2.0 * value if value else 1.0]


class _Sites(ast.NodeVisitor):
    """(offset of the token, old token, new token, enclosing defs) of every mutation site."""

    def __init__(self, source: str):
        self.source = source
        self.line_starts = [0]
        for line in source.splitlines(keepends=True):
            self.line_starts.append(self.line_starts[-1] + len(line))
        self.functions: list[str] = []
        self.sites: list[tuple[int, str, str, tuple[str, ...]]] = []

    def _offset(self, line: int, byte_col: int) -> int:
        # ast columns count UTF-8 bytes; offsets here count characters
        start = self.line_starts[line - 1]
        text = self.source[start:self.line_starts[line]]
        return start + len(text.encode("utf-8")[:byte_col].decode("utf-8"))

    def _operator(self, left: ast.AST, right: ast.AST, symbol: str) -> int:
        # between two operands stand only the operator, brackets, blanks and comments
        start = self._offset(left.end_lineno, left.end_col_offset)
        gap = self.source[start:self._offset(right.lineno, right.col_offset)]
        gap = re.sub(r"#[^\n]*", lambda comment: " " * len(comment.group()), gap)
        if re.sub(r"[\s()\\]", "", gap) != symbol:
            raise ValueError(f"no lone {symbol!r} between operands at line {left.end_lineno}")
        return start + gap.index(symbol)

    def _add(self, offset: int, old: str, new: str) -> None:
        self.sites.append((offset, old, new, tuple(self.functions)))

    def visit_FunctionDef(self, node) -> None:
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Compare(self, node: ast.Compare) -> None:
        for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
            if type(op) in COMPARISONS:
                symbol, mutated = COMPARISONS[type(op)]
                self._add(self._operator(left, right, symbol), symbol, mutated)
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if type(node.op) in ARITHMETIC:
            symbol, mutated = ARITHMETIC[type(node.op)]
            self._add(self._operator(node.left, node.right, symbol), symbol, mutated)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if type(node.op) in ARITHMETIC:
            symbol, mutated = ARITHMETIC[type(node.op)]
            self._add(self._operator(node.target, node.value, symbol + "="), symbol + "=", mutated + "=")
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        mutations = _number_mutations(node.value)
        if mutations:
            start = self._offset(node.lineno, node.col_offset)
            old = self.source[start:self._offset(node.end_lineno, node.end_col_offset)]
            if ast.literal_eval(old) != node.value:
                raise ValueError(f"{old!r} at line {node.lineno} is not the number {node.value!r}")
            for value in mutations:
                self._add(start, old, repr(value))


def mutants(path: Path, functions: tuple[str, ...] = (), lines: set[int] | None = None) -> list[Mutant]:
    """Every mutant of one module, in source order.

    functions keeps the sites inside a def of one of those names; lines
    keeps the sites on those lines.
    """
    source = path.read_text(encoding="utf-8")
    sites = _Sites(source)
    sites.visit(ast.parse(source))
    relative = path.resolve().relative_to(ROOT)
    found = []
    for offset, old, new, within in sorted(sites.sites, key=lambda site: site[:3]):
        line = bisect.bisect_right(sites.line_starts, offset)
        if functions and not set(functions) & set(within):
            continue
        if lines is not None and line not in lines:
            continue
        start = sites.line_starts[line - 1]
        text = source[start:sites.line_starts[line]]
        indent = len(text) - len(text.lstrip())
        found.append(Mutant(relative, line, offset - start, old, new, text.strip(), indent))
    return found


def changed_lines(revision: str, path: Path) -> set[int]:
    """Lines of path that differ from revision, by `git diff -U0`."""
    diff = subprocess.run(
        ["git", "diff", "-U0", revision, "--", str(path.resolve())],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    changed = set()
    for start, count in re.findall(r"^@@ -\S+ \+(\d+)(?:,(\d+))? @@", diff, flags=re.MULTILINE):
        changed.update(range(int(start), int(start) + int(count or 1)))
    return changed


def run_tests(tree: Path, timeout: float | None) -> int | None:
    """The exit status of one pytest run in tree, or None if it timed out."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    ignored = [f"--ignore={tree / test}" for test in IGNORED_TESTS]
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *ignored]
    process = subprocess.Popen(command, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    finally:
        if process.poll() is None:  # timed out or interrupted: take the run's children with it
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()


def run(found: list[Mutant]) -> int:
    outcomes = {"killed": 0, "timeout": 0, "equivalent": 0, "survived": 0}
    with tempfile.TemporaryDirectory(prefix="sealsim-mutants-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "_work", "*.egg-info", "build"))
        started = time.monotonic()
        if run_tests(tree, None) != 0:
            print("the unmutated tests fail; no mutant was run", file=sys.stderr)
            return 2
        elapsed = time.monotonic() - started
        timeout = 3.0 * elapsed + 10.0
        print(f"unmutated tests pass in {elapsed:.1f} s; timeout {timeout:.1f} s", flush=True)
        for mutant in found:
            reason = mutant.equivalence()
            if reason is None:
                target = tree / mutant.path
                source = target.read_text(encoding="utf-8")
                mutated = mutant.apply(source)
                compile(mutated, str(target), "exec")  # a mutant that does not compile is a bug here
                target.write_text(mutated, encoding="utf-8")
                try:
                    code = run_tests(tree, timeout)
                finally:
                    target.write_text(source, encoding="utf-8")
                outcome = "timeout" if code is None else "survived" if code == 0 else "killed"
            else:
                outcome = "equivalent"
            outcomes[outcome] += 1
            print(f"{outcome:10s} {mutant}" + (f"  ({reason})" if reason else ""), flush=True)
    print(f"{len(found)} mutants: {outcomes['killed']} killed, {outcomes['timeout']} timed out, "
          f"{outcomes['equivalent']} equivalent, {outcomes['survived']} survived")
    return 1 if outcomes["survived"] else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("modules", nargs="*", type=Path,
                        help="modules to mutate (default: every module of src/sealsim)")
    parser.add_argument("--list", action="store_true", help="print the mutants and run no tests")
    parser.add_argument("--function", action="append", default=[],
                        help="only the sites inside a def of this name (repeatable)")
    parser.add_argument("--since", metavar="REVISION",
                        help="only the sites on lines changed since this git revision")
    args = parser.parse_args(argv)
    modules = args.modules or sorted(PACKAGE.glob("*.py"))
    found = []
    for module in modules:
        lines = None if args.since is None else changed_lines(args.since, module)
        found += mutants(module, tuple(args.function), lines)
    if args.list:
        for mutant in found:
            print(mutant)
        return 0
    if not found:
        print("0 mutants")
        return 0
    return run(found)


if __name__ == "__main__":
    sys.exit(main())
