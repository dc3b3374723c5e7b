"""Benchmark of the sealsim command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout: the program is the checkout's
own `src/sealsim`, run as `python -m sealsim` in a fresh interpreter per
command with PYTHONPATH set to that `src/`.  The seed makes every input
the program sees (bit strings, angles, its --seed, the --message and the
random overlap matrix); the same seed gives the same inputs.

--trace 0 measures end to end, with tracing off:
  1. a fresh `import sealsim.cli` that proves which tree is measured and
     compiles the byte code;
  2. one discarded warm-up pass over the workload's commands;
  3. timed rounds for about --seconds (at least one), each a fresh-
     interpreter import (`setup_s`) and a pass over the commands,
     reporting medians of the import time, the pass's wall time, its
     children's CPU time and the largest single child's peak RSS (from
     os.wait4, so every child is measured on its own).
--trace 1 runs the warm-up pass, then rounds of an untraced and a traced
in-process run of the same commands (perfbench/layers.py) for about
--seconds, and reports per-layer medians.  A round that would end, at the
run's mean pace, after --seconds is not started.

Every command's stdout is checked against values recomputed independently
(perfbench/workloads.py) and its sha256 recorded; a repeat whose digest
differs counts as a failed operation.  The last line of stdout is one JSON
object {correct, attempted, failed, metrics}; a fuller record goes to
perfbench/_work/results/.  Exit 2, without a result, when the checkout's
sealsim cannot be run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from workloads import CheckError, Command

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = BENCH_DIR / "_work"

RUN_LIMIT_S = 170.0  # every child is killed by then; the run must end within 180 s
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# The dimension cap changes what the program refuses; byte-code and
# import-profiling switches change what setup_s measures.
UNSET_VARS = ("SEALSIM_MAX_DIM", "PYTHONDONTWRITEBYTECODE", "PYTHONPROFILEIMPORTTIME")

IMPORT_PROBE = """\
import json, sys, time
start = time.perf_counter()
import sealsim.cli
elapsed = time.perf_counter() - start
import numpy, scipy, sealsim
print(json.dumps({"import_s": elapsed, "file": sealsim.__file__,
    "sealsim": sealsim.__version__, "numpy": numpy.__version__,
    "scipy": scipy.__version__, "python": sys.version.split()[0]}))
"""

IMPORT_TIME = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)\s*$")


class BenchError(Exception):
    """The benchmark cannot measure this checkout."""


@dataclass
class Child:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mib: float


@dataclass
class Tally:
    """Per-command verdicts and digests over every execution in a run."""

    commands: list[Command]
    reference: dict[int, tuple[str, int]] = field(default_factory=dict)
    verdicts: dict[int, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, index: int, digest: str, rc: int, stdout: bytes | None = None) -> None:
        """Count one execution; check the output the first time it is seen."""
        self.attempted += 1
        first = self.reference.setdefault(index, (digest, rc))
        if first != (digest, rc):
            self._fail(index, f"output {digest[:12]}/rc {rc} differs from {first[0][:12]}/rc {first[1]}")
            return
        if index not in self.verdicts:
            if stdout is None:
                raise BenchError("first execution of a command must be checked from its stdout")
            try:
                sampled = self.commands[index].check(stdout, rc)
                self.verdicts[index] = "sampled-fail" if sampled else "ok"
            except CheckError as exc:
                self.verdicts[index] = f"wrong: {exc}"
            except Exception as exc:  # noqa: BLE001 - output too malformed to parse
                self.verdicts[index] = f"wrong: {type(exc).__name__}: {exc}"
        if self.verdicts[index].startswith("wrong"):
            self._fail(index, self.verdicts[index])

    def _fail(self, index: int, message: str) -> None:
        self.failed += 1
        self.errors.append(f"{' '.join(self.commands[index].args[:1])} #{index}: {message}")

    def sampled_fail(self, layer: str) -> int:
        return sum(
            1
            for i, verdict in self.verdicts.items()
            if verdict == "sampled-fail" and self.commands[i].sampled_layer == layer
        )


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool) -> None:
        self.workload = workload
        self.build = workloads.WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.work = WORK / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        self.env = {k: v for k, v in os.environ.items() if k not in UNSET_VARS}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env.update({var: "1" for var in BLAS_THREAD_VARS})
        self.python = sys.executable or "python3"

    # ------------------------------------------------------------ children

    def spawn(self, argv: list[str], name: str) -> Child:
        """Run one child to completion; stdout and stderr go to files in the work dir."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        with open(self.work / f"{name}.out", "wb") as out, open(self.work / f"{name}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    env=self.env, cwd=self.work)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)

    def output(self, name: str) -> bytes:
        return (self.work / f"{name}.out").read_bytes()

    def stderr_text(self, name: str) -> str:
        return (self.work / f"{name}.err").read_text(errors="replace")

    def import_probe(self, name: str) -> dict:
        """Fresh-interpreter `import sealsim.cli`, checked to load this checkout's src/."""
        child = self.spawn([self.python, "-c", IMPORT_PROBE], name)
        if child.rc != 0:
            tail = self.stderr_text(name).strip().splitlines()[-1:] or ["no error output"]
            raise BenchError(f"cannot import sealsim from {ROOT / 'src'}: {tail[0]}")
        info = json.loads(self.output(name).decode().strip().splitlines()[-1])
        src = (ROOT / "src").resolve()
        if not Path(info["file"]).resolve().is_relative_to(src):
            raise BenchError(f"imported {info['file']}, not the checkout's {src}")
        return info

    # --------------------------------------------------------------- passes

    def run_pass(self, commands: list[Command], tally: Tally) -> dict:
        wall = cpu = rss = 0.0
        for index, command in enumerate(commands):
            name = f"cmd{index}"
            child = self.spawn([self.python, "-m", "sealsim", *command.args], name)
            stdout = self.output(name)
            tally.record(index, hashlib.sha256(stdout).hexdigest(), child.rc, stdout)
            wall += child.wall_s
            cpu += child.cpu_s
            rss = max(rss, child.rss_mib)
        return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mib": rss}

    def layer_run(self, plan: Path, traced: bool, label: str, tally: Tally) -> dict:
        out = self.work / f"{label}.json"
        argv = [self.python, "-X", "importtime", str(BENCH_DIR / "layers.py"), str(plan), str(out)]
        child = self.spawn(argv + (["--traced"] if traced else []), label)
        if child.rc != 0:
            tail = self.stderr_text(label).strip().splitlines()[-1:] or ["no error output"]
            raise BenchError(f"layer run failed with exit {child.rc}: {tail[0]}")
        result = json.loads(out.read_text())
        for index, command in enumerate(result["commands"]):
            tally.record(index, command["sha256"], command["rc"])
        for probe in result.get("probes", ()):
            tally.attempted += 1
            if probe["rc"] not in (0, 1):
                tally.failed += 1
                tally.errors.append(f"probe {probe['args'][0]} exited {probe['rc']}")
        result["imports"] = import_times(self.stderr_text(label))
        return result

    def rounds(self):
        """Yield round numbers for about --seconds: at least one round, and no
        round that would end, at the mean pace so far, after --seconds."""
        start = time.monotonic()
        done = 0
        while True:
            yield done
            done += 1
            elapsed = time.monotonic() - start
            if elapsed + elapsed / done > self.seconds:
                return

    # ------------------------------------------------------------------ run

    def run(self) -> tuple[dict, dict]:
        started = time.monotonic()
        self.work.mkdir(parents=True, exist_ok=True)
        info = self.import_probe("tree-check")
        commands = self.build(self.seed, self.work)
        tally = Tally(commands)
        record = {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "environment": environment(info, self.env),
            "commands": [list(c.args) for c in commands],
        }
        record["warmup"] = self.run_pass(commands, tally)
        if self.trace:
            metrics = self.measure_layers(commands, tally, record)
        else:
            metrics = self.measure_end_to_end(commands, tally, record)
        record["digests"] = {" ".join(commands[i].args): d for i, (d, _) in sorted(tally.reference.items())}
        record["verdicts"] = {" ".join(commands[i].args): v for i, v in sorted(tally.verdicts.items())}
        record["errors"] = tally.errors
        record["run_s"] = time.monotonic() - started
        summary = {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
        }
        return summary, record

    def measure_end_to_end(self, commands: list[Command], tally: Tally, record: dict) -> dict:
        # Each round is one set-up sample and one pass, so both are spread
        # over the whole run and a slow minute of the host weighs on each alike.
        setup, passes = [], []
        for _ in self.rounds():
            setup.append(self.import_probe("setup")["import_s"])
            passes.append(self.run_pass(commands, tally))
        record["setup_s"] = setup
        record["passes"] = passes
        values = {key: statistics.median(p[key] for p in passes) for key in passes[0]}
        values["setup_s"] = statistics.median(setup)
        return values

    def measure_layers(self, commands: list[Command], tally: Tally, record: dict) -> dict:
        plan = self.work / "plan.json"
        probes = workloads.probe_commands(self.seed, self.work)
        plan.write_text(json.dumps({"commands": [c.args for c in commands], "probes": probes}))
        plain, traced = [], []
        for _ in self.rounds():
            plain.append(self.layer_run(plan, False, "plain", tally))
            traced.append(self.layer_run(plan, True, "traced", tally))
        values = {
            key: statistics.median(run["metrics"][key] for run in traced)
            for key in traced[0]["metrics"]
        }
        every = plain + traced
        for key in ("sealsim", "scipy.stats"):
            values[f"import.{key.replace('.', '_')}_s"] = statistics.median(r["imports"][key] for r in every)
        values["bench.trace_overhead_s"] = statistics.median(
            r["workload_s"] for r in traced
        ) - statistics.median(r["workload_s"] for r in plain)
        values["claims.sampled_fail"] = tally.sampled_fail("claims")
        values["montecarlo.sampled_fail"] = tally.sampled_fail("montecarlo")
        record["layer_runs"] = [{k: v for k, v in r.items() if k != "spans"} for r in every]
        record["spans"] = traced[-1]["spans"]
        record["probe_from"] = traced[-1]["probe_from"]
        return values


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds from `-X importtime`: the top-level sealsim imports,
    and scipy.stats wherever it was first imported (0 if it never was)."""
    sealsim = scipy_stats = 0.0
    for line in stderr.splitlines():
        match = IMPORT_TIME.match(line)
        if not match:
            continue
        seconds, indent, module = int(match.group(1)) / 1e6, match.group(2), match.group(3)
        if not indent and (module == "sealsim" or module.startswith("sealsim.")):
            sealsim += seconds
        elif module == "scipy.stats" and not scipy_stats:
            scipy_stats = seconds
    return {"sealsim": sealsim, "scipy.stats": scipy_stats}


def environment(info: dict, env: dict) -> dict:
    meminfo = _read("/proc/meminfo")
    mem_kib = re.search(r"MemTotal:\s+(\d+)", meminfo)
    cpu = re.search(r"model name\s*:\s*(.+)", _read("/proc/cpuinfo"))
    return {
        "git": git_state(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu.group(1).strip() if cpu else platform.processor(),
        "mem_total_mib": int(mem_kib.group(1)) // 1024 if mem_kib else None,
        "platform": platform.platform(),
        "python": info["python"],
        "numpy": info["numpy"],
        "scipy": info["scipy"],
        "sealsim": info["sealsim"],
        "sealsim_file": info["file"],
        "SEALSIM_MAX_DIM": os.environ.get("SEALSIM_MAX_DIM"),  # children run with it unset
        "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS},
    }


def git_state() -> dict | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30, check=True).stdout
    except (subprocess.SubprocessError, OSError):
        return None
    return {"sha": sha, "dirty": bool(status.strip())}


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics one mode reports, in BENCHMARK.json order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def summary_lines(summary: dict, record: dict) -> list[str]:
    env = record["environment"]
    lines = [
        f"workload {record['workload']} seed {record['seed']} trace {record['trace']}",
        f"python {env['python']} numpy {env['numpy']} scipy {env['scipy']} on {env['nproc']}x {env['cpu_model']}, "
        f"git {env['git']}",
    ]
    for command, digest in record["digests"].items():
        lines.append(f"  {record['verdicts'].get(command, '?'):>12}  sha256 {digest[:16]}  {command[:100]}")
    lines += [f"  error: {e}" for e in record["errors"]]
    lines += [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in summary["metrics"].items()]
    return lines


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        units = metric_units(bench.trace)
        summary, record = bench.run()
        if set(summary["metrics"]) != set(units):
            raise BenchError(f"measured {sorted(summary['metrics'])}, BENCHMARK.json lists {sorted(units)}")
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    summary["metrics"] = {
        name: {"value": summary["metrics"][name], "unit": unit} for name, unit in units.items()
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps({**record, "summary": summary}) + "\n")
    for line in summary_lines(summary, record):
        print(line)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
