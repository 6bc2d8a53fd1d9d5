"""Checks that host-speed calibration keeps a known change to the program.

Runs one workload in pairs of runs on the same seed, one as it is and one
with a fixed extra loop in every ``Engine.query`` call (``run.py
--extra-work``), alternating which of the two goes first.  For each
metric it prints the median over the pairs of the changed run's value
over the unchanged one's, calibrated and raw.  Calibration is faithful
when the two ratios agree; the raw one is the noisier.

Usage, from the repository root::

    python3 perfbench/calibration_check.py --workload paper-cold \\
        --pairs 4 --seconds 10 --work 40000
"""

from __future__ import annotations

import argparse
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
METRICS = ("query_p50_ms", "query_p95_ms", "ops_per_s")
LINE = re.compile(r"^(\S+)\s+(-?[0-9.]+) \S+$")


def _run(workload, seed, seconds, work):
    """The figures one run of ``run.py`` prints, by name."""
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0", "--extra-work", str(work)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    figures = {}
    for line in completed.stdout.splitlines():
        match = LINE.match(line)
        if match:
            figures[match.group(1)] = float(match.group(2))
    return figures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="paper-cold")
    parser.add_argument("--pairs", type=int, default=4)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--work", type=int, default=40000)
    args = parser.parse_args(argv)
    ratios = {}
    for pair in range(args.pairs):
        seed = pair + 1
        order = (0, args.work) if pair % 2 == 0 else (args.work, 0)
        runs = {work: _run(args.workload, seed, args.seconds, work)
                for work in order}
        for name in METRICS:
            for prefix in ("", "raw."):
                key = prefix + name
                ratio = runs[args.work][key] / runs[0][key]
                ratios.setdefault(key, []).append(ratio)
        print("pair %d (seed %d): %s" % (pair, seed, "  ".join(
            "%s %.3f/%.3f" % (name, ratios[name][-1],
                              ratios["raw." + name][-1])
            for name in METRICS)), flush=True)
    print("median changed/unchanged over %d pairs, calibrated vs raw:"
          % args.pairs)
    for name in METRICS:
        calibrated = statistics.median(ratios[name])
        raw = statistics.median(ratios["raw." + name])
        print("%-14s calibrated %.3f  raw %.3f  difference %+.3f"
              % (name, calibrated, raw, calibrated - raw))
    return 0


if __name__ == "__main__":
    sys.exit(main())
