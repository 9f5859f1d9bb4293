#!/usr/bin/env python3
"""Compare two chainbench result files, base first::

    python3 benchmarks/chainbench/compare.py A/results.json B/results.json

One row per (workload, end-to-end metric): both values, the ratio B/A
with its base, the gain in the metric's "better" direction, the
run-to-run spread, and a verdict against the metric's bound:

* ``regressed`` — worse than the base by more than the bound (and the spread);
* ``improved`` — better by more than the bound (and the spread);
* ``unresolved`` — inside the bound, but the spread between repeats
  (interquartile range / median, the wider of the two files) is wider
  than the bound, so "unchanged" cannot be claimed either;
* ``within-bound`` — otherwise.

Simulated-clock metrics repeat exactly for one seed, so two runs of the
same commit — or of a host-only optimisation — must show them
*identical*; the summary line says whether they are. Exit status is 1
when any row regressed.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, List

VERDICTS = ("regressed", "unresolved", "improved", "within-bound")


@dataclass(frozen=True)
class Row:
    workload: str
    metric: str
    unit: str
    clock: str
    base: float
    new: float
    gain: float  # share of the base, positive = better
    spread: float
    bound: float
    verdict: str

    @property
    def ratio(self) -> float:
        return self.new / self.base if self.base else float("nan")

    @property
    def identical(self) -> bool:
        return self.base == self.new


def _spread(entry: Dict[str, Any]) -> float:
    median = entry.get("median")
    return entry["iqr"] / median if median and entry.get("n", 0) >= 2 else 0.0


def _verdict(gain: float, spread: float, bound: float) -> str:
    if gain < -max(bound, spread):
        return "regressed"
    if gain > max(bound, spread):
        return "improved"
    return "unresolved" if spread > bound else "within-bound"


class Comparison:
    """Two result files side by side.

    Every summary is a property computed on first use and kept, so a
    caller that only wants ``regressed`` does not pay for the report.
    """

    def __init__(self, base: Dict[str, Any], new: Dict[str, Any]) -> None:
        self.base = base
        self.new = new

    @cached_property
    def workloads(self) -> List[str]:
        return [name for name in self.base["workloads"] if name in self.new["workloads"]]

    @cached_property
    def rows(self) -> List[Row]:
        rows = []
        for workload in self.workloads:
            base_metrics = self.base["workloads"][workload]["end_to_end"]
            new_metrics = self.new["workloads"][workload]["end_to_end"]
            for metric, base_entry in base_metrics.items():
                if metric not in new_metrics:
                    continue
                new_entry = new_metrics[metric]
                base_value, new_value = base_entry["value"], new_entry["value"]
                change = (new_value - base_value) / base_value if base_value else 0.0
                gain = change if base_entry["better"] == "higher" else -change
                spread = max(_spread(base_entry), _spread(new_entry))
                rows.append(
                    Row(
                        workload=workload,
                        metric=metric,
                        unit=base_entry["unit"],
                        clock=base_entry["clock"],
                        base=base_value,
                        new=new_value,
                        gain=gain,
                        spread=spread,
                        bound=base_entry["bound"],
                        verdict=_verdict(gain, spread, base_entry["bound"]),
                    )
                )
        return rows

    @cached_property
    def by_verdict(self) -> Dict[str, List[Row]]:
        return {verdict: [row for row in self.rows if row.verdict == verdict] for verdict in VERDICTS}

    @cached_property
    def regressed(self) -> List[Row]:
        return self.by_verdict["regressed"]

    @cached_property
    def sim_identical(self) -> bool:
        """Every simulated-clock metric and every transaction count equal."""
        return all(row.identical for row in self.rows if row.clock == "sim") and all(
            self.base["workloads"][name]["counts"] == self.new["workloads"][name]["counts"]
            for name in self.workloads
        )

    @cached_property
    def worst_host_change(self) -> float:
        """Largest absolute relative change of any host-clock metric."""
        return max((abs(row.gain) for row in self.rows if row.clock == "host"), default=0.0)

    def format(self) -> str:
        lines = []
        for workload in self.workloads:
            lines.append(f"\n== {workload}")
            lines.append(
                f"  {'metric':<20} {'base':>12} {'new':>12} {'unit':<5} {'new/base':>9} "
                f"{'gain':>8} {'spread':>7} {'bound':>6}  verdict"
            )
            for row in self.rows:
                if row.workload != workload:
                    continue
                same = "  (identical)" if row.identical else ""
                lines.append(
                    f"  {row.metric:<20} {row.base:>12.6g} {row.new:>12.6g} {row.unit:<5} "
                    f"{row.ratio:>9.4f} {100 * row.gain:>+7.2f}% {100 * row.spread:>6.2f}% "
                    f"{100 * row.bound:>5.1f}%  {row.verdict}{same}"
                )
        counts = ", ".join(f"{len(self.by_verdict[verdict])} {verdict}" for verdict in VERDICTS)
        lines.append(f"\n{len(self.rows)} rows: {counts}")
        lines.append(
            "simulated-clock metrics and transaction counts: "
            + ("identical" if self.sim_identical else "DIFFER")
            + f"; largest host-clock change {100 * self.worst_host_change:.2f}%"
        )
        return "\n".join(lines)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path) as handle:
            documents.append(json.load(handle))
    comparison = Comparison(*documents)
    print(f"base {argv[0]} (seed {documents[0]['seed']})  new {argv[1]} (seed {documents[1]['seed']})")
    print(comparison.format())
    return 1 if comparison.regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
