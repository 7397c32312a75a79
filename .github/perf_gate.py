#!/usr/bin/env python3
"""Paired sperkebench gate: one commit against another, on one host.

    python3 .github/perf_gate.py BASE [CHANGE]

Run from the repository root. BASE and CHANGE (default HEAD) are
commits; to gate a branch, pass `$(git merge-base origin/main HEAD)`.
The script builds sperkebench at each commit in a detached git
worktree, then runs PAIRS pairs per BENCHMARK.json workload at seed 77
(`--seconds 3 --trace 0`), alternating which side runs first.

It exits 1 when a run does not report `"correct": true`, or when, for
some workload and `end_to_end` metric, the change's median is worse
than the base's by more than the metric's `bound` and the change lost
every pair. A row past its bound in which the change won a pair prints
as unresolved and does not fail. When the commits differ under
sperkebench/ or in BENCHMARK.json the two sides run different
benchmarks, so the gate is skipped.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

PAIRS = 5
RUN_ARGS = ["--seed", "77", "--seconds", "3", "--trace", "0"]


def git(*args):
    out = subprocess.run(["git", *args], check=True, capture_output=True, text=True)
    return out.stdout.strip()


def build(sha, root):
    """Check `sha` out at `root` and build its sperkebench; returns the binary."""
    git("worktree", "add", "--detach", root, sha)
    bench = os.path.join(root, "sperkebench")
    target = os.path.join(bench, "target")
    subprocess.run(
        ["cargo", "build", "--offline", "--release", "--quiet",
         "--manifest-path", os.path.join(bench, "Cargo.toml"), "--target-dir", target],
        check=True,
    )
    return os.path.join(target, "release", "sperkebench")


def run(binary, workload):
    """One sperkebench process; returns the JSON object on its last line."""
    out = subprocess.run(
        [binary, "--workload", workload, *RUN_ARGS], check=True, capture_output=True, text=True
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def verdicts(spec, runs):
    """Print one row per workload and metric; returns True when one fails."""
    failed = False
    print(f"{'workload':<16} {'metric':<15} {'base':>11} {'change':>11} {'delta':>8}  lost  verdict")
    for workload, sides in runs.items():
        for side, docs in sides.items():
            wrong = sum(doc["correct"] is not True for doc in docs)
            if wrong:
                print(f"{workload}: {wrong} of {len(docs)} {side} runs not correct")
                failed = True
        for metric in spec["end_to_end"]:
            name, higher = metric["name"], metric["better"] == "higher"
            base, change = ([doc["metrics"][name]["value"] for doc in sides[s]]
                            for s in ("base", "change"))
            b, c = statistics.median(base), statistics.median(change)
            worse = (b - c) / b if higher else (c - b) / b
            lost = sum(ci < bi if higher else ci > bi for bi, ci in zip(base, change))
            verdict = "ok" if worse <= metric["bound"] else "FAIL" if lost == PAIRS else "unresolved"
            failed |= verdict == "FAIL"
            print(f"{workload:<16} {name:<15} {b:>11.5g} {c:>11.5g} {(c - b) / b:>+8.1%}"
                  f"  {lost}/{PAIRS}   {verdict}")
    return failed


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    start = time.monotonic()
    base, change = (git("rev-parse", "--verify", ref + "^{commit}")
                    for ref in (argv[1], argv[2] if len(argv) == 3 else "HEAD"))
    print(f"perf gate: base {base[:12]}, change {change[:12]}", flush=True)
    if git("diff", "--name-only", base, change, "--", "sperkebench", "BENCHMARK.json"):
        print("::notice::the change touches sperkebench/ or BENCHMARK.json, so its two "
              "sides run different benchmarks; paired perf gate skipped")
        return 0
    spec = json.loads(git("show", f"{change}:BENCHMARK.json"))
    runs = {w["name"]: {"base": [], "change": []} for w in spec["workloads"]}
    with tempfile.TemporaryDirectory(prefix="perf-gate-") as tmp:
        sides = {"base": base, "change": change}
        try:
            binary = {side: build(sha, os.path.join(tmp, side)) for side, sha in sides.items()}
            for workload, results in runs.items():
                print(f"running {PAIRS} pairs of {workload}", flush=True)
                for pair in range(PAIRS):
                    for side in ("base", "change") if pair % 2 == 0 else ("change", "base"):
                        results[side].append(run(binary[side], workload))
        finally:
            for side in sides:
                subprocess.run(["git", "worktree", "remove", "--force", os.path.join(tmp, side)],
                               capture_output=True)
    failed = verdicts(spec, runs)
    print(f"perf gate: {'FAIL' if failed else 'PASS'} in {time.monotonic() - start:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
