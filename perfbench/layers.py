"""In-process layer run: `python -X importtime perfbench/layers.py PLAN OUT [--traced]`.

Runs the plan's sealsim CLI commands through `sealsim.cli.main` in one
interpreter.  With --traced it first wraps every public function and
public method that the layer modules define, in every sealsim module
namespace that holds a reference to it, so a span (name, start, end,
parent) is recorded around each call into a layer.  Spans stay in memory
and are written out once, with the per-layer metrics derived from them,
when the run ends.  Without --traced the same commands run unwrapped,
which gives the tracing overhead.

PLAN is JSON: {"commands": [[arg, ...], ...], "probes": [[arg, ...], ...]}.
Probe commands run only when traced, after the workload; their spans
stand in for layers the workload does not reach (see `layer_metrics`).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import inspect
import io
import json
import statistics
import sys
import time
import traceback
import tracemalloc

LAYERS = ("seals", "attacks", "analysis", "montecarlo", "claims", "cli")

# span name -> per-layer metric prefix
TIMED = {
    "seals.overlap_matrix": "seals.overlap_matrix",
    "seals.load_overlap_matrix": "seals.load_overlap_matrix",
    "attacks.MeasurementFamily.completeness_deviation": "attacks.completeness_deviation",
    "montecarlo.run_experiment": "montecarlo.run_experiment",
    "montecarlo.chi_square_check": "montecarlo.chi_square_check",
    "claims.format_report": "claims.format_report",
    "cli.main": "cli.main",
}
COUNTED = (
    "analysis.decode_matrix",
    "analysis.mutual_information",
    "analysis.escape_probability",
    "analysis.expected_flat_mass",
    "analysis.tradeoff_sweep",
)
CLAIM_CHECKS = (
    "check_povm_completeness",
    "check_decode_closed_form",
    "check_decode_floor",
    "check_flat_posterior",
    "check_escape_floor",
    "check_fidelity_collapse",
    "check_coin_toss_equivalence",
    "check_zero_information",
    "check_bit_seal",
    "check_cross_construction",
)
RUN_EXPERIMENT = "montecarlo.run_experiment"


class Tracer:
    """Records nested spans around calls into the layer modules."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.experiments: list = []  # ExperimentConfig of each run_experiment call
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        experiments = self.experiments if name == RUN_EXPERIMENT else None

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            if experiments is not None:
                experiments.append(args[0] if args else kwargs["config"])
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"sealsim.{layer}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for method, fn in list(vars(obj).items()):
                        if not method.startswith("_") and inspect.isfunction(fn):
                            self._set(obj, method, self._wrap(f"{layer}.{attr}.{method}", fn))
        for name, module in list(sys.modules.items()):
            if name == "sealsim" or name.startswith("sealsim."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._set(module, attr, wrappers[obj])

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()


def run_command(main, args: list[str]) -> dict:
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            rc = main(list(args))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - as a CLI process, an uncaught error exits 1
            traceback.print_exc()
            rc = 1
    wall = time.perf_counter() - start
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    return {"args": list(args), "rc": rc, "wall_s": wall, "sha256": digest}


def _durations(spans: list[list], first: int, stop: int) -> dict[str, list[float]]:
    """Durations by name of spans[first:stop], counting only the outermost
    of nested same-name spans."""
    by_name: dict[str, list[float]] = {}
    for name, start, end, parent in spans[first:stop]:
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            by_name.setdefault(name, []).append(end - start)
    return by_name


def _cli_self_s(spans: list[list], stop: int) -> float:
    """cli.main time in spans[:stop] not covered by its direct children in other layers."""
    total = 0.0
    mains = set()
    for i, (name, start, end, parent) in enumerate(spans[:stop]):
        if name == "cli.main":
            mains.add(i)
            total += end - start
        elif parent in mains and not name.startswith("cli."):
            total -= end - start
    return total


def layer_metrics(spans: list[list], probe_from: int, experiments: list, probe_experiments: list) -> dict:
    """Per-layer metrics from the workload's spans.

    Times of layers the workload never called come from the probe spans
    that follow index `probe_from`; call counts are the workload's own.
    """
    work = _durations(spans, 0, probe_from)
    probe = _durations(spans, probe_from, len(spans))

    def seconds(name: str) -> float:
        return sum(work.get(name) or probe.get(name) or [0.0])

    metrics = {f"{prefix}_s": seconds(name) for name, prefix in TIMED.items()}
    for name in COUNTED:
        metrics[f"{name}_s"] = seconds(name)
        metrics[f"{name}_calls"] = len(work.get(name, ()))
    for number, check in enumerate(CLAIM_CHECKS, start=1):
        metrics[f"claims.check_{number:02d}_s"] = seconds(f"claims.{check}")
    metrics["cli.self_s"] = _cli_self_s(spans, probe_from)
    runs = experiments if RUN_EXPERIMENT in work else probe_experiments
    trials = sum(config.trials for config in runs)
    metrics["montecarlo.mrounds_per_s"] = trials / metrics["montecarlo.run_experiment_s"] / 1e6
    return metrics


def mc_micro(run_experiment, configs: list) -> dict:
    """Table set-up time (trials = 1) and traced peak bytes per round."""
    distinct = {json.dumps(c.describe(), sort_keys=True): c for c in configs}.values()
    tables_s = 0.0
    peak_per_round = 0.0
    for config in distinct:
        single = dataclasses.replace(config, trials=1)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            run_experiment(single)
            times.append(time.perf_counter() - start)
        tables_s += statistics.median(times)
        tracemalloc.start()
        try:
            run_experiment(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        peak_per_round = max(peak_per_round, peak / config.trials)
    return {"montecarlo.tables_s": tables_s, "montecarlo.peak_bytes_per_round": peak_per_round}


def main(argv: list[str]) -> int:
    plan_path, out_path = argv[0], argv[1]
    traced = "--traced" in argv[2:]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)

    import sealsim.cli
    import sealsim.montecarlo

    run_experiment = sealsim.montecarlo.run_experiment
    tracer = Tracer()
    if traced:
        tracer.install()
    start = time.perf_counter()
    commands = [run_command(sealsim.cli.main, args) for args in plan["commands"]]
    workload_s = time.perf_counter() - start
    result = {"traced": traced, "workload_s": workload_s, "commands": commands}
    if traced:
        probe_from = len(tracer.spans)
        n_experiments = len(tracer.experiments)
        result["probes"] = [run_command(sealsim.cli.main, args) for args in plan["probes"]]
        tracer.uninstall()
        work_runs = tracer.experiments[:n_experiments]
        probe_runs = tracer.experiments[n_experiments:]
        metrics = layer_metrics(tracer.spans, probe_from, work_runs, probe_runs)
        metrics.update(mc_micro(run_experiment, work_runs or probe_runs))
        result["metrics"] = metrics
        result["probe_from"] = probe_from
        result["spans"] = tracer.spans
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
