#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

  python3 benchmark/compare.py BASE CHANGE

BASE and CHANGE are each a directory of run records written by run.py (its
--out option), or one or more record files separated by commas. For every
(workload, end-to-end metric) the table shows each side's median and
quartiles and a verdict:

  ok          the change's median is within the bound of the base's
  better      better than the base's median by more than the bound
  regressed   worse than the base's median by more than the bound
  unresolved  the run-to-run spread (quartile distance over median) on
              either side exceeds the bound, and neither side's runs all
              beat the other's
  missing     one side has no run of this workload or did not report the
              metric, while the other side did

Per-layer metrics from traced runs are listed with both medians and the
relative change; they have no bound and get no verdict. Exit code 1 when any
row is regressed, unresolved or missing, or when any run on either side had
a failed operation or an incorrect output.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_records(arg):
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [
        Path(p) for p in arg.split(",") if p]
    records = []
    for f in files:
        with open(f, encoding="utf-8") as handle:
            records.append(json.load(handle))
    return records


def group(records):
    """(workload, trace) -> metric -> [values]"""
    out = defaultdict(lambda: defaultdict(list))
    for r in records:
        for name, m in r["metrics"].items():
            out[(r["workload"], bool(r["trace"]))][name].append(m["value"])
    return out


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(values):
    med, q1, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, change, better, bound):
    b_med, c_med = statistics.median(base), statistics.median(change)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (c_med - b_med) / abs(b_med) if b_med else 0.0
    separated = (all(sign * c < sign * b for c in change for b in base) or
                 all(sign * b < sign * c for c in change for b in base))
    if max(spread(base), spread(change)) > bound and not separated:
        return "unresolved", worse_by
    if worse_by > bound:
        return "regressed", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "ok", worse_by


def failed_runs(records):
    """Runs whose operations failed or whose output was not correct."""
    return ["%s seed %s trace %d: %d of %d ops failed%s" % (
        r["workload"], r["seed"], int(r["trace"]), r["failed"], r["attempted"],
        "" if r["correct"] else ", output not correct")
        for r in records if r["failed"] or not r["correct"]]


def describe_side(records):
    revs = sorted({r["provenance"]["git_revision"][:12] for r in records})
    seeds = sorted({r["seed"] for r in records})
    return "%d runs, revision %s, seeds %s" % (len(records), ",".join(revs),
                                               seeds)


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    base_records, change_records = load_records(argv[1]), load_records(argv[2])
    print("base:   " + describe_side(base_records))
    print("change: " + describe_side(change_records))
    base, change = group(base_records), group(change_records)
    bad = 0
    for side, records in (("base", base_records), ("change", change_records)):
        for line in failed_runs(records):
            print("%s: FAILED %s" % (side, line))
            bad += 1

    print("\n%-11s %-20s %-8s %27s %27s %8s  %s" % (
        "workload", "metric", "unit", "base median [q1, q3]",
        "change median [q1, q3]", "worse", "verdict (bound)"))
    for w in spec["workloads"]:
        key = (w["name"], False)
        if key not in base and key not in change:
            continue  # neither side ran this workload untraced
        for m in spec["end_to_end"]:
            b, c = base[key].get(m["name"]), change[key].get(m["name"])
            if not b or not c:
                bad += 1
                print("%-11s %-20s %-8s %27s %27s %8s  missing on %s" % (
                    w["name"], m["name"], m["unit"], "", "", "",
                    "base" if not b else "change"))
                continue
            result, worse_by = verdict(b, c, m["better"], m["bound"])
            bad += result in ("regressed", "unresolved")
            print("%-11s %-20s %-8s %27s %27s %+7.2f%%  %s (%g%%)" % (
                w["name"], m["name"], m["unit"],
                "%.6g [%.6g, %.6g]" % summary(b),
                "%.6g [%.6g, %.6g]" % summary(c),
                100 * worse_by, result, 100 * m["bound"]))

    rows = []
    for w in spec["workloads"]:
        key = (w["name"], True)
        for m in spec["per_layer"]:
            b, c = base[key].get(m["name"]), change[key].get(m["name"])
            if b and c:
                b_med, c_med = statistics.median(b), statistics.median(c)
                rel = (c_med - b_med) / abs(b_med) if b_med else 0.0
                rows.append((w["name"], m["name"], m["unit"], b_med, c_med,
                             rel))
    if rows:
        print("\nper-layer (traced runs; no bounds)")
        print("%-11s %-40s %-9s %14s %14s %9s" % (
            "workload", "metric", "unit", "base", "change", "change"))
        for row in rows:
            print("%-11s %-40s %-9s %14.6g %14.6g %+8.2f%%" % (
                *row[:5], 100 * row[5]))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
