#!/usr/bin/env python3
"""Compares two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE.jsonl [NEW.jsonl]

Each file holds the last stdout lines of runs of one workload, one JSON
object per line (as perfbench/run.py prints them with --trace 0).  For
every end-to-end metric it prints the median and the spread (quartile
distance over median) of each set.  With two sets it also prints how much
worse the new median is than the base median, and exits 1 if that exceeds
the metric's bound or if any run was incorrect.
"""

import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    runs = [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
    return [{k: v["value"] for k, v in r["metrics"].items()} for r in runs], all(
        r["correct"] for r in runs)


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    base, ok = load(argv[1])
    new, new_ok = load(argv[2]) if len(argv) == 3 else (base, True)
    rows = stats.compare(base, new, metrics)
    print(f"{'metric':20} {'base median':>14} {'spread':>8} {'new median':>14} "
          f"{'spread':>8} {'worse by':>9} {'bound':>6}")
    for r in rows:
        print(f"{r['name']:20} {r['base_median']:>14.6g} {r['base_spread']:>8.3f} "
              f"{r['new_median']:>14.6g} {r['new_spread']:>8.3f} {r['worse_by']:>9.3f} "
              f"{r['bound']:>6} {'' if r['within'] else 'WORSE'}")
    print(f"runs: base {len(base)}, new {len(new)}; all correct: {ok and new_ok}")
    return 0 if ok and new_ok and all(r["within"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
