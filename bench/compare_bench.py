#!/usr/bin/env python3
"""Bench regression gate for bench_micro_ops JSON output.

Compares a fresh google-benchmark JSON run against the checked-in
bench/baseline.json in two ways:

1. RATIO GATE (fails CI): for each tracked pair below, the speedup ratio
   faster-path / slower-path (items_per_second) is computed in BOTH runs
   from their own same-machine measurements. The new ratio must not fall
   more than --threshold percent below the baseline ratio, and must stay
   above the pair's hard floor where one is set (the PR acceptance
   criteria: leaf-walk scans >= 1.5x the serial reference walk on a
   latency-bound store, grouped
   4-thread commits >= 1x the 4 independent scalar commits, a lone
   grouped commit >= 0.9x a scalar one). Ratios compare two paths on one
   machine, so this gate is meaningful on any runner; the slow-device
   scan pairs need at least 4 hardware threads (see their comment).

2. ABSOLUTE DRIFT (warns by default, fails with --strict): per-benchmark
   items_per_second against the baseline. Absolute numbers move with the
   runner's hardware, so this is advisory unless you know both runs came
   from comparable machines.

Note on the checked-in baseline: it is recorded from a Release
(-O3 -DNDEBUG) build of this repo; the JSON's "library_build_type":
"debug" describes the distro's libbenchmark package, not the code under
test. The recording host may still differ from the CI runner (core
count, disk), which is why only same-run ratios gate hard, pairs whose
ratio depends on core count are floor-only, and absolute numbers warn
unless --strict. Regenerate with:
  ./build/bench_micro_ops --benchmark_min_time=0.2 \
      --benchmark_format=json --benchmark_out=bench/baseline.json

Each side's rate is the median of that benchmark's iteration rows, so a
run with --benchmark_repetitions (CI uses 3) compares medians.

Usage: compare_bench.py BASELINE.json NEW.json [--threshold 25] [--strict]
"""

import argparse
import json
import statistics
import sys

# (faster path, slower path, hard floor on the ratio or None,
#  compare against the baseline ratio?)
# Pairs whose ratio depends on the host's core count / sync cost (thread
# scaling, fsync amortization) keep only their machine-independent floor;
# comparing their baseline ratio across different runners would be noise.
TRACKED_PAIRS = [
    ("BM_FileStorePutBatched/64", "BM_FileStorePutScalar/64", 1.5, True),
    ("BM_FileStorePutBatched/256", "BM_FileStorePutScalar/256", 1.5, True),
    # 1024-chunk batches are write-bandwidth-bound; the advantage varies
    # with the disk, so this pair is regression-tracked without a floor.
    ("BM_FileStorePutBatched/1024", "BM_FileStorePutScalar/1024", None, True),
    ("BM_FileStoreGetBatched/64", "BM_FileStoreGetScalar/64", 1.5, True),
    ("BM_FileStoreGetBatched/256", "BM_FileStoreGetScalar/256", 1.5, True),
    # Read-ahead criterion: on a latency-bound store (150us per read) the
    # leaf walk (Async), whose runs of 16 leaves are read one GetMany each
    # on the caller and the hash pool, must beat the serial reference walk
    # (Sync: one Get per node, testing/serial_walk.h). The ratio is
    # dominated by the simulated latency and by the reads in flight, which
    # the bench's device model caps at a queue depth of 4: it travels to
    # any runner with at least 4 hardware threads (the caller and 3 hash
    # pool helpers); on fewer, the walk issues fewer reads and the ratio
    # falls.
    ("BM_MapScanSlowDeviceAsync/real_time",
     "BM_MapScanSlowDeviceSync/real_time", 1.5, True),
    # Tiered-store criterion: scanning a tree resident only on a slow cold
    # tier, the leaf walk must beat the serial reference walk.
    # Latency-dominated and queued on the same depth-4 device model as the
    # SlowDevice pair.
    ("BM_MapScanTieredColdAsync/real_time",
     "BM_MapScanTieredColdSync/real_time", 1.5, True),
    # Bounded-tier criterion: scanning a working set 2x the hot budget —
    # every chunk promoted, evicted and its segment rewritten each cycle —
    # must cost at most ~2x the serial reference scan of the cold tier. The
    # evicting side is CPU-heavy (promotion hashing, tombstones, rewrites)
    # while the serial side is latency-bound, so the ratio moves with the
    # runner's CPU: floor only, no baseline comparison.
    ("BM_MapScanTieredEvicting/real_time",
     "BM_MapScanTieredColdSync/real_time", 0.5, False),
    # Group-commit criteria: ForkBase::Put (the one commit path) against a
    # bench-local scalar FNode write + head set. Four racing writers must
    # share syncs at least as well as four independent scalar commits; a
    # lone writer leads a group of one and must keep >= 0.9x the scalar
    # reference (no handoff to a drain thread).
    ("CommitBench/FNodeCommit/1/real_time/threads:4",
     "CommitBench/FNodeCommit/0/real_time/threads:4", 1.0, False),
    ("CommitBench/FNodeCommit/1/real_time/threads:1",
     "CommitBench/FNodeCommit/0/real_time/threads:1", 0.9, False),
    # Sync-subsystem criterion: after negotiation a steady-state push
    # exports only the delta past the receiver's frontier, which must stay
    # well ahead of re-exporting the head's whole closure. Both sides are
    # CPU-bound closure walks over the same in-memory corpus, so the ratio
    # travels across runners.
    ("BM_SyncPushDelta", "BM_SyncPushFull", 2.0, True),
    # Parallel-maintenance criterion of the in-place GC PR: the same
    # compaction backlog (~37 segment rewrites, page cache dropped,
    # pre-truncate fsync plus a simulated 500us device sync — the
    # SlowDevice methodology, since rewrites block on device waits that a
    # 1-thread pool serializes) must run >= 1.5x faster on a 4-thread
    # maintenance pool. The serialized CPU share still moves with the
    # runner's core count, so floor only, no baseline comparison.
    ("BM_CompactParallel/real_time", "BM_CompactSerial/real_time", 1.5,
     False),
    # Encoded-storage criteria. The corpus pair is a deterministic size
    # measurement (manual time pinned at 1s, items = physical bytes), so
    # the ratio is exact and fully portable: a 64-commit versioned corpus
    # stored compressed+delta must be <= 0.6x its raw footprint
    # (raw/encoded >= 1.67). The scan pair bounds the read-side tax of
    # compression on a cold scan (batched GetMany through the 150us
    # SlowChunkStore device model): the decompression is CPU work riding a
    # latency-bound sweep, and how much of it hides in the device wait
    # moves with the runner's CPU, so floor only — the compressed scan must
    # hold >= 0.8x raw throughput.
    ("BM_VersionedCorpusBytesRaw/manual_time",
     "BM_VersionedCorpusBytesEncoded/manual_time", 1.67, True),
    ("BM_ScanCompressedStore/real_time", "BM_ScanRawStore/real_time",
     0.8, False),
    # Hardware-hashing criteria. All three are floor-only: the ratios hinge
    # on whether the runner's CPU has SHA extensions, which the recording
    # host can't speak for. The chunker pair is pure portable CPU work
    # (same ISA on both sides) and must hold the 1.3x component floor; the
    # SHA and ingest pairs degrade to ~1.0x on a runner without SHA-NI/CE
    # (dispatch falls back to the very scalar core it is compared against),
    # so their floors only assert "hardware dispatch never loses". On a
    # SHA-capable host they run ~5x and ~2.5x respectively.
    ("BM_ChunkerThroughputBlockwise", "BM_ChunkerThroughputOld", 1.3, False),
    ("BM_Sha256ThroughputDispatched", "BM_Sha256ThroughputScalar", 0.95,
     False),
    ("BM_IngestBandwidth", "BM_IngestBandwidthScalarSha", 0.95, False),
    # Update-complexity criterion: a one-key map commit reuses every
    # untouched subtree, so its cost grows with the tree's height, not its
    # size. At 100x the entries it must keep >= 0.2x the throughput (an
    # O(N) re-chunk of every entry gives ~0.01x; O(height) gives ~0.4x).
    # The ratio is CPU-only work on both sides but its level moves with
    # cache behaviour, so floor only.
    ("BM_MapCommit/100000", "BM_MapCommit/1000", 0.2, False),
    # Sync-cost criterion: a one-commit delta export stops at the
    # receiver's frontier, so after 10x the history it must keep >= 0.5x
    # the throughput (~1x by construction; subtracting the receiver's whole
    # closure, as pulls once did, falls with every prior commit). CPU-only
    # on both sides, but cache behaviour moves the level: floor only.
    ("BM_DeltaExport/1000", "BM_DeltaExport/100", 0.5, False),
    # One-pass integrity criterion: validating a file-backed 100k-entry map
    # loads each chunk once, batched, with re-hashing spread across the
    # hash pool, so it must keep >= 0.5x the throughput of a serial
    # reference scan of the same tree (one Get per node, no hashing). The
    # hashing share moves with the runner's cores and SHA support: floor
    # only.
    ("BM_MapValidateFileSync/real_time", "BM_MapScanFileSync/real_time", 0.5,
     False),
    # Parallel bulk-load criterion: a 100k-row table load that splits,
    # encodes and hashes its leaf segments across the hash pool must run
    # >= 1.3x faster in wall-clock time than the bench-local streaming
    # reference building the same row map on one thread. The ratio scales
    # with the runner's core count: floor only.
    ("BM_TableFromCsv/100000/real_time",
     "BM_TableFromCsvStreaming/100000/real_time", 1.3, False),
    # Parallel ordered-scan criterion: a full scan of a 100k-row table on a
    # file-backed store under a small cache, with hash-pool helpers reading
    # and splitting runs of leaves while the caller delivers rows in key
    # order, must run >= 1.3x faster in wall-clock time than the bench-local
    # serial reference scan of the same table. Scales with the runner's core
    # count: floor only.
    ("BM_TableScan/100000/real_time",
     "BM_TableScanSerial/100000/real_time", 1.3, False),
]


def load_rates(path):
    """Each benchmark's median rate over its iteration rows.

    A run with --benchmark_repetitions=N has N rows per name; a
    single-repetition run (the checked-in baseline) is a median of one.
    """
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        # Throughput benches report one or the other; ratios are identical
        # either way.
        rate = bench.get("items_per_second") or bench.get("bytes_per_second")
        if rate:
            rows.setdefault(bench["name"], []).append(rate)
    return {name: statistics.median(rates) for name, rates in rows.items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--threshold", type=float, default=25.0,
                        help="max tolerated ratio regression, percent")
    parser.add_argument("--strict", action="store_true",
                        help="fail on absolute per-benchmark drift too")
    args = parser.parse_args()

    base = load_rates(args.baseline)
    new = load_rates(args.fresh)
    tolerance = 1.0 - args.threshold / 100.0
    failures = []
    warnings = []

    print(f"== ratio gate (threshold {args.threshold:.0f}%) ==")
    for fast, slow, floor, vs_baseline in TRACKED_PAIRS:
        if fast not in new or slow not in new:
            failures.append(f"pair missing from new run: {fast} / {slow}")
            continue
        new_ratio = new[fast] / new[slow]
        line = f"{fast} / {slow}: {new_ratio:.2f}x"
        if not vs_baseline:
            line += " (floor-only pair)"
        elif fast in base and slow in base:
            base_ratio = base[fast] / base[slow]
            line += f" (baseline {base_ratio:.2f}x)"
            if new_ratio < base_ratio * tolerance:
                failures.append(
                    f"ratio regression: {fast}/{slow} fell to {new_ratio:.2f}x "
                    f"from {base_ratio:.2f}x (>{args.threshold:.0f}%)")
        else:
            warnings.append(f"pair not in baseline: {fast} / {slow}")
        if floor is not None and new_ratio < floor:
            failures.append(
                f"floor violated: {fast}/{slow} = {new_ratio:.2f}x "
                f"< required {floor:.2f}x")
        print("  " + line)

    print("== absolute drift ==")
    for name in sorted(set(base) & set(new)):
        drift = new[name] / base[name]
        if drift < tolerance:
            msg = (f"absolute regression: {name} at {drift * 100:.0f}% "
                   f"of baseline throughput")
            (failures if args.strict else warnings).append(msg)
        print(f"  {name}: {drift * 100:.0f}% of baseline")

    for w in warnings:
        print(f"WARNING: {w}")
    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print("OK: all tracked ratios within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
