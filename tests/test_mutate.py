"""tools/mutate.py enumerates its mutants deterministically; no test runs under a mutant here.

The full mutation runs take one tier-1 run per surviving mutant, so they
are left to the tool itself (see README).
"""

import ast
import importlib.util
import subprocess
import sys
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "sealsim").glob("*.py"))


def load_tool():
    spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


mutate = load_tool()


@cache
def every_mutant():
    return tuple(mutant for path in MODULES for mutant in mutate.mutants(path))


def test_enumeration_is_deterministic():
    assert every_mutant() and list(every_mutant()) == [
        mutant for path in MODULES for mutant in mutate.mutants(path)
    ]


def test_each_equivalent_mutant_is_found_once():
    counts = [sum(mutate.matches(entry, mutant) for mutant in every_mutant()) for entry in mutate.EQUIVALENT]
    assert [entry for entry, count in zip(mutate.EQUIVALENT, counts) if count != 1] == []


def test_an_equivalent_entry_names_the_mutant_whose_token_it_holds():
    # two mutants turn a 1 into a 2 on the guide table's bin-count line; the
    # entry's text holds only the second token, so it names only that mutant
    entry = next(entry for entry in mutate.EQUIVALENT if entry[1].endswith(".bit_length()"))
    pair = [
        mutant for mutant in every_mutant()
        if mutant.text == "self.bins = 1 << (16 * len(cumulative) - 1).bit_length()"
        and (mutant.old, mutant.new) == ("1", "2")
    ]
    assert [(mutant.col + 1, mutate.matches(entry, mutant)) for mutant in pair] == [(21, False), (50, True)]


def test_each_mutant_changes_one_token_and_parses():
    # parsing the top-level statement that holds the mutant, not the module,
    # keeps this test fast
    for path in MODULES:
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines(keepends=True)
        spans = {}
        for node in ast.parse(source).body:
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            spans[first, node.end_lineno] = ast.dump(ast.parse("".join(lines[first - 1:node.end_lineno])))
        for mutant in mutate.mutants(path):
            first, last = next(span for span in spans if span[0] <= mutant.line <= span[1])
            after = mutant.apply(source).splitlines(keepends=True)[first - 1:last]
            grown = len("".join(after)) - len("".join(lines[first - 1:last]))
            assert grown == len(mutant.new) - len(mutant.old), mutant
            assert ast.dump(ast.parse("".join(after))) != spans[first, last], mutant


def test_the_cap_and_claim_7_grid_mutants_are_made():
    # the mutants that tests in test_cli.py and test_acceptance.py kill
    made = {(mutant.text, mutant.old, mutant.new) for mutant in every_mutant()}
    assert {
        ("if value < 2:", "<", "<="),
        ("if value < 2:", "2", "3"),
        ("DEFAULT_MAX_DIM = 4096", "4096", "4095"),
        ("DEFAULT_MAX_DIM = 4096", "4096", "4097"),
        ("for weights in (om.weights for m, _, om in seal_suite() if m <= 4)", "4", "5"),
    } <= made


def test_list_prints_the_mutants_and_runs_nothing(monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError(f"a process was started: {args}")

    monkeypatch.setattr(subprocess, "Popen", no_run)
    errors = ROOT / "src" / "sealsim" / "errors.py"
    assert mutate.main(["--list", str(errors)]) == 0
    assert capsys.readouterr().out.splitlines() == [str(m) for m in mutate.mutants(errors)]


def test_function_keeps_the_sites_inside_that_def():
    montecarlo = ROOT / "src" / "sealsim" / "montecarlo.py"
    node = next(
        node for node in ast.parse(montecarlo.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and node.name == "escape_band_check"
    )
    inside = [m for m in mutate.mutants(montecarlo) if node.lineno <= m.line <= node.end_lineno]
    assert inside and mutate.mutants(montecarlo, functions=("escape_band_check",)) == inside
