#!/bin/bash
# Regenerates every paper figure; output to bench_output.txt.
set -u
cd "$(dirname "$0")"
B=build/bench
{
echo "##########################################################"
echo "# dLSM reproduction: full benchmark sweep"
echo "# $(date)"
echo "##########################################################"
timeout 1200 $B/rdma_primitives
# --stats_json: machine-readable BENCH_*.json next to bench_output.txt
# (ops/s, latency percentiles, per-verb-class bytes/ops, fault counters).
timeout 2400 $B/fig7_write --keys=60000 --stats_json=BENCH_fig7.json
timeout 2400 $B/fig8_read --keys=60000 --stats_json=BENCH_fig8.json
# Compute-side cache A/B: cache off vs 64 MiB TinyLFU cache at zipfian
# 0.99 (plus a cpu_scale=0 wire-determinism leg); asserts >= 3x READ-verb
# reduction and no end-to-end loss in ops/s, op p50 or op p99.
timeout 2400 $B/fig8_read --cache_ab --keys=60000 --stats_json=BENCH_cache_ab.json
# Continuous telemetry: A/B overhead guard (1ms sampler + 50ms watchdog,
# wire identical at cpu_scale=0) and a sampled series for the dLSM read
# cell.
timeout 2400 $B/fig8_read --telemetry_ab --keys=60000
timeout 2400 $B/fig8_read --keys=60000 --only=dLSM --threads=8 \
  --stats_series=BENCH_fig8_series.json --watchdog_ms=100
timeout 2400 $B/fig9_datasizes --base=30000 --steps=4
timeout 2400 $B/fig10_mixed --keys=60000
timeout 1200 $B/fig11_scan --keys=80000
timeout 2400 $B/fig12_compaction --keys=150000 --stats_json=BENCH_fig12.json
timeout 1200 $B/fig13_byteaddr --keys=80000
timeout 2400 $B/fig14_scalability --base=20000
timeout 2400 $B/fig15_multinode --base=20000
# Placement A/B: zipfian 0.99 on 4C4M, heat rebalancer off vs on; asserts
# >= 2x per-node READ-verb imbalance cut and no resolved uniform p50
# regression (> 2% in the median of 5 pairs, ranges not overlapping).
timeout 2400 $B/fig15_multinode --placement_ab --base=50000 --stats_json=BENCH_placement.json
timeout 1200 $B/ablations --keys=60000
timeout 1200 $B/ablation_readbatch --keys=20000
echo; echo "=== micro benchmarks (wall clock, google-benchmark) ==="
timeout 1200 $B/micro_bench 2>&1 | grep -v "^\*\*\*"
} 2>&1
