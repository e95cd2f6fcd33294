#!/bin/sh
# Regenerate every table, figure and ablation of the paper into
# results/ (one <name>.txt each, plus per-cell JSON stats sidecars under
# results/stats/<name>/), then the host-speed benches.
#
# build/bench/figures simulates each distinct (workload, spec, params)
# cell once, backed by the result store results/log/store: re-invoke
# the script after a crash or kill and it recomputes only the missing
# cells. The store keys on the code version stamped at configure time,
# so after changing the tree start from a fresh results directory.
# BERTI_JOBS caps the worker pool (default: all hardware threads).
#
# Everything under results/ except log/ is deterministic: two pipeline
# trees compare with `diff -r -x log`. results/log/ holds the store,
# the stderr logs, wall_s.tsv (name, wall seconds, exit code per run),
# and the host-speed outputs (perf_simspeed.txt, BENCH_simspeed.json,
# micro_prefetchers.txt).
#
# Sampled mode: set BERTI_SAMPLE_WINDOWS=N (plus optionally
# BERTI_SAMPLE_WARMUP / BERTI_SAMPLE_MEASURE / BERTI_SAMPLE_STRIDE) and
# every figure measures N sampled windows instead of the full region of
# interest. Sampled outputs land under results-sampled/.
BERTI_JOBS="${BERTI_JOBS:-$(nproc 2>/dev/null || echo 1)}"
export BERTI_JOBS

results="results"
if [ -n "${BERTI_SAMPLE_WINDOWS:-}" ] && [ "${BERTI_SAMPLE_WINDOWS}" != "0" ]; then
    results="results-sampled"
    echo "=== sampled mode: BERTI_SAMPLE_WINDOWS=$BERTI_SAMPLE_WINDOWS, writing to $results/"
fi
log="$results/log"

mkdir -p "$log"
# Sweep staging files left by a previous invocation that was killed
# mid-write. Completed outputs never carry the .tmp suffix.
find "$results" -name '*.tmp' -type f -exec rm -f {} + 2>/dev/null
wall_log="$log/wall_s.tsv"
[ -s "$wall_log" ] || printf 'bench\twall_s\texit\n' > "$wall_log"
# timed NAME CMD [ARG...]: run CMD, append NAME, its wall seconds and
# its exit code to $wall_log, and return that exit code. The caller's
# redirections apply to CMD.
timed() {
    timed_name=$1
    shift
    timed_t0=$(date +%s.%N)
    "$@"
    timed_rc=$?
    timed_t1=$(date +%s.%N)
    awk -v n="$timed_name" -v t0="$timed_t0" -v t1="$timed_t1" \
        -v rc="$timed_rc" 'BEGIN { printf "%s\t%.3f\t%d\n", n, t1 - t0, rc }' \
        >> "$wall_log"
    return $timed_rc
}
failed=""
echo "=== figures start $(date +%T) (BERTI_JOBS=$BERTI_JOBS)"
if timed figures ./build/bench/figures "$results" 2> "$log/figures.stderr"; then
    echo "=== figures done $(date +%T)"
else
    failed="$failed figures"
    echo "=== figures FAILED $(date +%T) (see $log/figures.stderr)"
fi
# Simulator-speed harness: human table plus the JSON artifact, collected
# via temp-file+mv so an interrupted run never leaves a partial file.
if [ ! -s "$log/BENCH_simspeed.json" ]; then
    tmp="$log/perf_simspeed.txt.tmp"
    tmpjson="$log/BENCH_simspeed.json.tmp"
    if timed perf_simspeed ./build/bench/perf_simspeed "--out=$tmpjson" \
        > "$tmp" 2> "$log/perf_simspeed.stderr"; then
        mv "$tmpjson" "$log/BENCH_simspeed.json"
        mv "$tmp" "$log/perf_simspeed.txt"
    else
        rm -f "$tmp" "$tmpjson"
        failed="$failed perf_simspeed"
        echo "=== perf_simspeed FAILED (see $log/perf_simspeed.stderr)"
    fi
fi
if [ ! -s "$log/micro_prefetchers.txt" ]; then
    tmp="$log/micro_prefetchers.txt.tmp"
    if timed micro_prefetchers \
        ./build/bench/micro_prefetchers --benchmark_min_time=0.1 \
        > "$tmp" 2> "$log/micro_prefetchers.stderr"; then
        mv "$tmp" "$log/micro_prefetchers.txt"
    else
        rm -f "$tmp"
        failed="$failed micro_prefetchers"
        echo "=== micro_prefetchers FAILED (see $log/micro_prefetchers.stderr)"
    fi
fi
# Real-trace sweep: point BERTI_TRACE_DIR at a directory of ChampSim
# traces (*.champsim, *.champsim.xz, *.champsim.gz) and every trace is
# swept through the prefetcher specs as a file: workload. Per-trace JSON
# sidecars land under $results/stats/traces/, the human table in
# $results/traces.txt, and the crash-safe result store under
# $log/trace_store (so a killed sweep resumes; content-hashed keys
# mean a replaced trace file recomputes instead of reusing stale cells).
if [ -n "${BERTI_TRACE_DIR:-}" ]; then
    traces=""
    for t in "$BERTI_TRACE_DIR"/*.champsim \
             "$BERTI_TRACE_DIR"/*.champsim.xz \
             "$BERTI_TRACE_DIR"/*.champsim.gz; do
        [ -f "$t" ] || continue
        if [ -n "$traces" ]; then
            traces="$traces,file:$t"
        else
            traces="file:$t"
        fi
    done
    if [ -z "$traces" ]; then
        echo "=== BERTI_TRACE_DIR=$BERTI_TRACE_DIR holds no *.champsim traces, skipping"
    elif [ -s "$results/traces.txt" ]; then
        : # resumed invocation: trace sweep already complete
    else
        echo "=== traces start $(date +%T) (BERTI_TRACE_DIR=$BERTI_TRACE_DIR)"
        tmp="$results/traces.txt.tmp"
        if timed traces ./build/tools/sweep_tool \
            --workloads="$traces" \
            --specs="${BERTI_TRACE_SPECS:-none,ip-stride,berti}" \
            --store="$log/trace_store" \
            --out="$results/stats/traces" \
            --jobs="$BERTI_JOBS" > "$tmp" \
            2> "$log/traces.stderr"; then
            mv "$tmp" "$results/traces.txt"
            echo "=== traces done $(date +%T)"
        else
            rc=$?
            rm -f "$tmp"
            failed="$failed traces"
            echo "=== traces FAILED rc=$rc $(date +%T) (see $log/traces.stderr)"
        fi
    fi
fi
if [ -n "$failed" ]; then
    echo "FAILED_BENCHES:$failed"
    exit 1
fi
echo ALL_BENCHES_DONE
