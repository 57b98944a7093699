#!/usr/bin/env python3
"""Perf-regression gate: compare a benchmark JSON against a committed baseline.

Inputs are google-benchmark JSON (micro_ml_kernels): every non-aggregate
entry in `benchmarks` is compared by `name` on `real_time` — lower is
better. Serving performance is measured by perfbench/ against the bounds in
BENCHMARK.json, not by this tool.

A benchmark regresses when it is slower than the baseline by more than
`--tolerance` (default 0.15 = 15%). Any regression prints a table and exits
non-zero, so CI can gate on it. Baselines live in bench/baselines/ and are
refreshed deliberately with --update after an accepted perf change.

--update MERGES rather than overwrites: baseline entries for benchmarks the
new run did not execute (e.g. a filtered re-run) are carried over. Entries
the new run does produce always replace their baseline values.

Exit codes: 0 ok (or baseline updated), 1 regression, 2 usage/input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise SystemExit(f"bench_compare: cannot read {path}: {err}")


def metrics(doc: dict, path: str) -> dict[str, float]:
    """Extract {name: real_time} from a google-benchmark document."""
    if "benchmarks" not in doc:
        raise SystemExit(f"bench_compare: {path}: unrecognized schema")
    out: dict[str, float] = {}
    for entry in doc["benchmarks"]:
        # Aggregate rows (mean/median/stddev) duplicate the plain runs.
        if entry.get("run_type", "iteration") != "iteration":
            continue
        try:
            out[entry["name"]] = float(entry["real_time"])
        except (KeyError, TypeError, ValueError):
            raise SystemExit(
                f"bench_compare: {path}: malformed benchmark entry")
    if not out:
        raise SystemExit(f"bench_compare: {path}: no benchmark entries")
    return out


def compare(baseline: dict[str, float], current: dict[str, float],
            tolerance: float) -> tuple[list[str], list[str]]:
    """Returns (regressions, notes) as printable lines."""
    regressions: list[str] = []
    notes: list[str] = []
    for name, base_value in sorted(baseline.items()):
        if name not in current:
            notes.append(f"  missing in current run (skipped): {name}")
            continue
        cur_value = current[name]
        if base_value <= 0:
            notes.append(f"  non-positive baseline (skipped): {name}")
            continue
        ratio = cur_value / base_value - 1.0  # + means slower than baseline
        line = (f"  {name}: baseline {base_value:,.1f}  current "
                f"{cur_value:,.1f}  ({ratio:+.1%} vs tolerance "
                f"{tolerance:.0%})")
        if ratio > tolerance:
            regressions.append(line)
        elif ratio < -tolerance:
            notes.append("  improved beyond tolerance (consider --update):"
                         + line)
    for name in sorted(set(current) - set(baseline)):
        notes.append(f"  new benchmark without baseline (skipped): {name}")
    return regressions, notes


def merge_for_update(old: dict | None, new: dict) -> dict:
    """The --update document: the new run, plus the old baseline's entries
    for benchmarks the new run lacks.

    `benchmarks` entries are merged by name — new entries first, then old
    entries whose name the new run lacks (a filtered or partial re-run must
    not silently drop coverage). A missing or schema-mismatched old
    baseline: the new run is taken verbatim.
    """
    if old is None:
        return new
    if "benchmarks" in new and "benchmarks" in old:
        merged = dict(new)
        names = {e.get("name") for e in new["benchmarks"]}
        merged["benchmarks"] = list(new["benchmarks"]) + [
            e for e in old["benchmarks"] if e.get("name") not in names]
        return merged
    return new


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="committed baseline JSON (bench/baselines/...)")
    parser.add_argument("--current", required=True,
                        help="freshly produced benchmark JSON")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed relative slowdown (default 0.15)")
    parser.add_argument("--update", action="store_true",
                        help="overwrite the baseline with the current run")
    args = parser.parse_args(argv)
    if args.tolerance < 0:
        parser.error("--tolerance must be non-negative")

    if args.update:
        new = load(args.current)  # validate before clobbering the baseline
        old = load(args.baseline) if os.path.exists(args.baseline) else None
        merged = merge_for_update(old, new)
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(merged, fh, indent=2)
            fh.write("\n")
        fresh = len(new.get("benchmarks", []))
        carried = [e["name"] for e in merged.get("benchmarks", [])[fresh:]]
        print(f"bench_compare: baseline {args.baseline} updated from "
              f"{args.current}"
              + (f" (carried over: {', '.join(carried)})" if carried else ""))
        return 0

    baseline = metrics(load(args.baseline), args.baseline)
    current = metrics(load(args.current), args.current)
    regressions, notes = compare(baseline, current, args.tolerance)
    for note in notes:
        print(note)
    if regressions:
        print(f"bench_compare: {len(regressions)} regression(s) beyond "
              f"{args.tolerance:.0%} tolerance:")
        for line in regressions:
            print(line)
        return 1
    print(f"bench_compare: OK — {len(baseline)} benchmark(s) within "
          f"{args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit as err:
        if isinstance(err.code, str):
            print(err.code, file=sys.stderr)
            sys.exit(2)
        raise
