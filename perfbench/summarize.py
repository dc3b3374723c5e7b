"""Summarize benchmark results: median and quartile spread per metric.

    python3 perfbench/summarize.py [RESULTS_DIR] [--against OTHER_DIR] [--json OUT]

RESULTS_DIR defaults to perfbench/_work/results, where run.py writes one
record per run.  Runs are grouped by workload and trace mode.  For each
metric the table gives the run count, the median, and the spread: the
distance between the first and third quartiles (statistics.quantiles,
n=4) as a share of the median.  With --against, each median is also
compared with the same metric's median in OTHER_DIR (for example the
parent commit's runs), as a signed share of that median.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

DEFAULT_DIR = Path(__file__).resolve().parent / "_work" / "results"


def load(directory: Path) -> dict[tuple[str, int], dict[str, list[float]]]:
    """(workload, trace) -> metric -> values, one per run; "attempted" and
    "failed" hold each run's operation counts."""
    groups: dict[tuple[str, int], dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        group = groups[(record["workload"], record["trace"])]
        for name, metric in record["summary"]["metrics"].items():
            group[name].append(metric["value"])
        for count in ("attempted", "failed"):
            group[count].append(record["summary"][count])
    return groups


def stats(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / abs(median) if median else float("nan")
    return {"n": len(values), "median": median, "q1": q1, "q3": q3, "spread": spread}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="?", type=Path, default=DEFAULT_DIR)
    parser.add_argument("--against", type=Path, help="results of a reference commit")
    parser.add_argument("--json", type=Path, help="also write the summary as JSON")
    args = parser.parse_args()

    current = load(args.results)
    reference = load(args.against) if args.against else {}
    summary = {}
    for (workload, trace), metrics in sorted(current.items()):
        attempted, failed = sum(metrics.pop("attempted")), sum(metrics.pop("failed"))
        print(f"== {workload} (trace {trace}): {failed} of {attempted} operations failed")
        rows = summary.setdefault(f"{workload} trace{trace}", {})
        rows["operations"] = {"attempted": attempted, "failed": failed}
        for name, values in metrics.items():
            row = stats(values)
            line = (f"  {name:36s} n={row['n']:2d} median={row['median']:<12.6g} "
                    f"spread={row['spread']:7.2%}")
            ref = reference.get((workload, trace), {}).get(name)
            if ref:
                base = statistics.median(ref)
                row["change"] = (row["median"] - base) / abs(base) if base else float("nan")
                line += f"  vs {base:.6g}: {row['change']:+.2%}"
            rows[name] = row
            print(line)
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
