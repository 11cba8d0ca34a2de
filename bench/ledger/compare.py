#!/usr/bin/env python3
"""Compare two sets of stage-ledger runs, metric by metric and workload by workload.

    bench/ledger/compare.py PARENT_DIR CHANGE_DIR

Each directory holds ledger files (<workload>.json, as written by
volcast_ledger --out=DIR), searched recursively: run bench/ledger/run.sh
--trace=0 --out=PARENT_DIR/NN once per run. Runs are paired in path order,
so alternate the sides when collecting them.

For every end-to-end metric in BENCHMARK.json and every workload the script
prints both sides' medians and quartiles, the change's win fraction over the
pairs (ties count for neither side) and a verdict:

  better      the change wins at least 9 of 10 pairs over at least 10 pairs,
              and the medians differ by more than the parent's IQR
  worse       the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  either side's IQR, as a share of its median, is wider than the
              bound (unless every change run beats every parent run)
  no change   everything else

Exits 1 if any metric is worse, else 0.
"""
import argparse
import json
import pathlib
import statistics
import sys

MIN_PAIRS_FOR_GAIN = 10
GAIN_WIN_FRACTION = 0.9


def load_runs(directory):
    """workload -> list of end_to_end dicts, in path order."""
    runs = {}
    for path in sorted(pathlib.Path(directory).rglob("*.json")):
        try:
            ledger = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(ledger, dict) or "end_to_end" not in ledger:
            continue
        runs.setdefault(ledger["workload"], []).append(ledger["end_to_end"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def scale(*medians):
    """Denominator for relative gaps: the first nonzero median, else 1."""
    for m in medians:
        if m != 0:
            return abs(m)
    return 1.0


def verdict(parent, change, higher_is_better, bound):
    sign = 1.0 if higher_is_better else -1.0
    mp, mc = statistics.median(parent), statistics.median(change)
    p_iqr = quartiles(parent)[1] - quartiles(parent)[0]
    c_iqr = quartiles(change)[1] - quartiles(change)[0]
    spread = max(p_iqr / scale(mp), c_iqr / scale(mc))
    gain = sign * (mc - mp) / scale(mp, mc)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not every_run_better:
        result = "unresolved"
    elif gain < -bound:
        result = "worse"
    elif (len(pairs) >= MIN_PAIRS_FOR_GAIN
          and wins >= GAIN_WIN_FRACTION * len(pairs)
          and abs(mc - mp) > p_iqr):
        result = "better"
    else:
        result = "no change"
    return {"parent": mp, "change": mc, "gain": gain, "wins": wins,
            "pairs": len(pairs), "verdict": result}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    args = parser.parse_args()

    benchmark = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"
    metrics = json.loads(benchmark.read_text())["end_to_end"]
    parent_runs, change_runs = load_runs(args.parent_dir), load_runs(args.change_dir)
    workloads = sorted(set(parent_runs) & set(change_runs))
    if not workloads:
        sys.exit("compare.py: no workload has ledger files on both sides")

    print(f"{'workload':14} {'metric':12} {'unit':8} {'parent median [q1, q3]':34} "
          f"{'change median [q1, q3]':34} {'gain':>8} {'wins':>6}  bound  verdict")
    worse = 0
    for workload in workloads:
        for metric in metrics:
            name = metric["name"]
            parent = [run[name]["value"] for run in parent_runs[workload] if name in run]
            change = [run[name]["value"] for run in change_runs[workload] if name in run]
            if not parent or not change:
                print(f"{workload:14} {name:12} missing on one side")
                continue
            v = verdict(parent, change, metric["better"] == "higher", metric["bound"])
            worse += v["verdict"] == "worse"
            pq, cq = quartiles(parent), quartiles(change)
            print(f"{workload:14} {name:12} {metric['unit']:8} "
                  f"{v['parent']:11.5g} [{pq[0]:9.5g}, {pq[1]:9.5g}] "
                  f"{v['change']:11.5g} [{cq[0]:9.5g}, {cq[1]:9.5g}] "
                  f"{100 * v['gain']:+7.2f}% {v['wins']:>2}/{v['pairs']:<3} "
                  f"{100 * metric['bound']:4.1f}%  {v['verdict']}")
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
