#!/usr/bin/env python3
"""Bench-regression guard: compare fresh bench artifacts against the
committed baselines and fail on real regressions of the guarded hot-path
benchmarks.

Accepts multiple --baseline/--current pairs (each flag may repeat); all
baseline files are merged into one namespace, all current files into
another, so one invocation guards e.g. the micro-kernel latencies and the
serving throughput sweep together:

    python3 tools/bench_guard.py \
        --baseline bench/baselines/BENCH_micro_kernels.json \
        --baseline bench/baselines/BENCH_serving.json \
        --current  build/BENCH_micro_kernels.json \
        --current  build/BENCH_serving.json

Two artifact formats are understood:
  * google-benchmark JSON (real_time/time_unit iteration entries) — these
    are latency entries: lower is better.
  * the repo's JsonReport format ({"name", "value", "unit"}) — the unit
    decides the direction: time units (ns/us/ms/s) are latencies,
    rate/ratio units (req/s, x) are throughputs guarded as MUST NOT DROP,
    and anything else (cores, frac, count) is informational — presence-
    checked but never speed-compared.

google-benchmark files may hold single runs or the aggregates of a
--benchmark_repetitions run; for the latter the guard compares the median
(CI runs the micro-kernel bench with five interleaved repetitions,
aggregates only, so one noisy repetition cannot fail the gate).

Raw numbers are not comparable across machines, so the guard first
computes a machine-speed scale from a calibration benchmark present in
both runs (a single-threaded kernel whose cost tracks raw CPU speed):

    latency    fails  iff  current > baseline * scale * (1 + threshold)
    throughput fails  iff  current < baseline / scale * (1 - threshold)
"""

import argparse
import json
import re
import sys


_NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
# JsonReport units guarded as higher-is-better throughput.
_THROUGHPUT_UNITS = {"req/s", "items/s", "GB/s", "x"}


def load_benchmarks(path):
    with open(path) as f:
        data = json.load(f)
    out = {}
    for bm in data.get("benchmarks", []):
        if "value" in bm:
            # JsonReport entry: the unit decides whether it's a latency, a
            # throughput, or informational.
            unit = bm.get("unit", "")
            if unit in _NS_PER_UNIT:
                out[bm["name"]] = {
                    "kind": "time",
                    "value": float(bm["value"]) * _NS_PER_UNIT[unit],
                }
            elif unit in _THROUGHPUT_UNITS:
                out[bm["name"]] = {
                    "kind": "throughput",
                    "value": float(bm["value"]),
                    # "x" entries are same-machine ratios (one path timed
                    # against another in the same process); the machine
                    # scale cancels out, so they compare unscaled.
                    "scale_free": unit == "x",
                }
            else:
                out[bm["name"]] = {"kind": "info",
                                   "value": float(bm["value"])}
            continue
        # google-benchmark entry: a single run ("iteration"), or, from a
        # --benchmark_repetitions run, the "median" aggregate, filed under
        # its run_name so it lines up with a single-run baseline. A median
        # wins over a single run of the same name; the other aggregates
        # (mean, stddev, cv) are dropped.
        run_type = bm.get("run_type", "iteration")
        if run_type == "aggregate":
            if bm.get("aggregate_name") != "median":
                continue
            name = bm["run_name"]
        elif run_type == "iteration":
            name = bm["name"]
            if out.get(name, {}).get("median"):
                continue
        else:
            continue
        # Prefer real_time (what UseRealTime sweeps report), normalised to
        # nanoseconds via time_unit.
        unit = _NS_PER_UNIT[bm.get("time_unit", "ns")]
        out[name] = {
            "kind": "time",
            "value": float(bm.get("real_time", bm.get("cpu_time"))) * unit,
            # Simd-tier benches report whether a real ISA ran (1) or the
            # scalar fallback (0); absent means not a Simd entry. The same
            # convention covers the dot-product GEMM generation rows
            # (dot_active: AVX-VNNI / NEON sdot ran, vs pair-madd).
            "simd_active": bm.get("simd_active"),
            "dot_active": bm.get("dot_active"),
            "median": run_type == "aggregate",
        }
    return out


def load_merged(paths):
    merged = {}
    for path in paths:
        entries = load_benchmarks(path)
        dup = sorted(set(merged) & set(entries))
        if dup:
            print(f"bench_guard: warning: {path} redefines {dup[0]}"
                  f"{' (+%d more)' % (len(dup) - 1) if len(dup) > 1 else ''}",
                  file=sys.stderr)
        merged.update(entries)
    return merged


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True, action="append",
                        help="committed baseline artifact (repeatable)")
    parser.add_argument("--current", required=True, action="append",
                        help="fresh artifact from this run (repeatable)")
    parser.add_argument(
        "--guard",
        default=r"^BM_(RepeatedPatchRun|PipelinedPatchRun"
                r"|Conv2dInt8Simd|PackedConvTierSweep"
                r"|GemmTierSweep|FcTierSweep)\b"
                r"|^serving/closed/.*req_per_s$"
                r"|^cold_start/speedup_x$"
                r"|^streaming/.*speedup_x$",
        help="regex of benchmark names that must not regress",
    )
    parser.add_argument(
        "--calibrate",
        default="BM_Conv2dInt8Ref/32",
        help="benchmark used to normalise machine speed between files",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="allowed slowdown after calibration (0.10 = 10%%)",
    )
    args = parser.parse_args()

    baseline = load_merged(args.baseline)
    current = load_merged(args.current)

    def is_time(entries, name):
        return name in entries and entries[name]["kind"] == "time"

    calibrate = args.calibrate
    if not (is_time(baseline, calibrate) and is_time(current, calibrate)):
        # A --benchmark_filter that excludes the default calibration entry
        # (e.g. a CI leg running only one family) shouldn't crash the
        # guard: fall back to any Reference-tier latency entry both runs
        # share — scalar single-threaded kernels that track raw machine
        # speed exactly like the default (the serving bench contributes
        # serving/calibration/RefSingleRun for exactly this purpose).
        shared = sorted(n for n in baseline
                        if is_time(baseline, n) and is_time(current, n)
                        and "Ref" in n)
        if not shared:
            print(f"bench_guard: calibration benchmark '{calibrate}' "
                  "missing from baseline or current run, and no shared "
                  "*Ref* latency entry to fall back to", file=sys.stderr)
            return 2
        calibrate = shared[0]
        print(f"bench_guard: calibration benchmark '{args.calibrate}' "
              f"not in both runs; falling back to '{calibrate}'")
    scale = current[calibrate]["value"] / baseline[calibrate]["value"]
    print(f"bench_guard: machine scale {scale:.3f} "
          f"(current {calibrate} / baseline)")

    guard = re.compile(args.guard)
    guarded = sorted(n for n in baseline if guard.search(n))
    if not guarded:
        print("bench_guard: no guarded benchmarks in the baseline",
              file=sys.stderr)
        return 2

    failures = []

    # Every baseline benchmark must appear in the current run, guarded or
    # not: each bench runs on every host (vector entries fall back to
    # scalar, serving entry names are host-independent), so absence means
    # the name, the filter, or the bench itself was silently dropped —
    # exactly the kind of coverage loss that should fail loudly instead of
    # shrinking the guard.
    for name in sorted(baseline):
        if name not in current:
            failures.append(f"{name}: missing from the current run")

    checked = 0
    skipped = 0
    for name in guarded:
        if name not in current:
            continue  # already recorded as a hard failure above
        base_entry = baseline[name]
        cur_entry = current[name]
        if base_entry["kind"] == "info":
            skipped += 1
            continue
        # Vector-tier entries are only comparable when the host actually
        # ran a vector body. The baseline records which entries had one
        # (simd_active=1: Simd rows with a vector table); if the current
        # host reports the scalar fallback
        # (simd_active=0, e.g. no usable ISA or QMCU_FORCE_SCALAR), the
        # comparison is meaningless, not a regression.
        if base_entry.get("simd_active") and \
                not cur_entry.get("simd_active"):
            print(f"  skip  {name}: scalar fallback on this host "
                  "(baseline simd_active=1, current 0)")
            skipped += 1
            continue
        # Same trick for the dot-product generation rows: a baseline
        # recorded on an AVX-VNNI / sdot host is not a bar a pair-madd
        # host can be held to.
        if base_entry.get("dot_active") and \
                not cur_entry.get("dot_active"):
            print(f"  skip  {name}: no dot-product generation on this host "
                  "(baseline dot_active=1, current 0)")
            skipped += 1
            continue
        checked += 1
        cur = cur_entry["value"]
        base = base_entry["value"]
        if base_entry["kind"] == "time":
            allowed = base * scale * (1.0 + args.threshold)
            ratio = cur / (base * scale)
            bad = cur > allowed
            print(f"  {'FAIL' if bad else 'ok'}  {name}: "
                  f"{cur / 1e6:.3f} ms vs scaled baseline "
                  f"{base * scale / 1e6:.3f} ms ({ratio:.2f}x)")
            if bad:
                failures.append(
                    f"{name}: {ratio:.2f}x the scaled baseline "
                    f"(> {1.0 + args.threshold:.2f}x allowed)")
        else:  # throughput: must not drop below the scaled baseline
            expected = base if base_entry.get("scale_free") else base / scale
            allowed = expected * (1.0 - args.threshold)
            ratio = cur / expected
            bad = cur < allowed
            print(f"  {'FAIL' if bad else 'ok'}  {name}: "
                  f"{cur:.1f} vs scaled baseline {expected:.1f} "
                  f"({ratio:.2f}x)")
            if bad:
                failures.append(
                    f"{name}: dropped to {ratio:.2f}x the scaled baseline "
                    f"(< {1.0 - args.threshold:.2f}x allowed)")

    if failures:
        print("bench_guard: regression detected:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"bench_guard: {checked} guarded benchmarks within "
          f"{args.threshold:.0%} of the scaled baseline "
          f"({skipped} skipped)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
