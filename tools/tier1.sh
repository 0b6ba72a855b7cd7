#!/bin/sh
# Tier-1 verify: the exact line ROADMAP.md pins, wrapped so CI and
# humans run the same thing. Any argument is forwarded to ctest
# (e.g. `tools/tier1.sh -L inject`).
set -e
cd "$(dirname "$0")/.."
cmake -B build -S .
cmake --build build -j
cd build
ctest --output-on-failure -j "$@"

# Every step below works in its own directory under one temp root.
TMP_ROOT=$(mktemp -d /tmp/simalpha-tier1-XXXXXX)
trap 'rm -rf "$TMP_ROOT"' EXIT
stepdir() {
    mkdir "$TMP_ROOT/$1"
    echo "$TMP_ROOT/$1"
}

# Serve smoke: daemon up, one capped campaign through the socket,
# clean shutdown — the CLI path the ctest suite exercises in-process.
# Its raw stream is checked against a --jobs 1 daemon's below.
SERVE_DIR=$(stepdir serve)
./tools/simalpha serve --store "$SERVE_DIR/store" --jobs 2 \
    > "$SERVE_DIR/serve.log" 2>&1 &
SERVE_PID=$!
sleep 1
./tools/simalpha submit --store "$SERVE_DIR/store" \
    --campaign smoke --max-insts 20000 --timeout 120 \
    > "$SERVE_DIR/serve.jsonl"
./tools/simalpha submit --store "$SERVE_DIR/store" --op shutdown \
    > /dev/null
wait "$SERVE_PID"
echo "serve smoke: OK"

# Fleet smoke: two loopback worker daemons behind a fleet front-end.
# The raw streams of the fleet and of the --jobs 2 serve smoke must be
# byte-identical to a --jobs 1 daemon's: every executor releases in
# spec order. (`submit --out` artifacts would not show it: they are
# rebuilt in spec order whatever order the stream had.)
FLEET_DIR=$(stepdir fleet)
./tools/simalpha serve --store "$FLEET_DIR/ref" --jobs 1 \
    > "$FLEET_DIR/ref.log" 2>&1 &
REF_PID=$!
sleep 1
./tools/simalpha submit --store "$FLEET_DIR/ref" --campaign smoke \
    --max-insts 20000 --timeout 120 > "$FLEET_DIR/ref.jsonl"
./tools/simalpha submit --store "$FLEET_DIR/ref" --op shutdown \
    > /dev/null
wait "$REF_PID"
./tools/simalpha serve --store "$FLEET_DIR/w0" --jobs 2 \
    > "$FLEET_DIR/w0.log" 2>&1 &
W0_PID=$!
./tools/simalpha serve --store "$FLEET_DIR/w1" --jobs 2 \
    > "$FLEET_DIR/w1.log" 2>&1 &
W1_PID=$!
sleep 1
./tools/simalpha fleet --store "$FLEET_DIR/front" \
    --workers "$FLEET_DIR/w0/serve.sock,$FLEET_DIR/w1/serve.sock" \
    > "$FLEET_DIR/fleet.log" 2>&1 &
FLEET_PID=$!
sleep 1
./tools/simalpha submit --store "$FLEET_DIR/front" --campaign smoke \
    --max-insts 20000 --timeout 120 > "$FLEET_DIR/fleet.jsonl"
./tools/simalpha submit --store "$FLEET_DIR/front" --op shutdown \
    > /dev/null
wait "$FLEET_PID"
./tools/simalpha submit --store "$FLEET_DIR/w0" --op shutdown \
    > /dev/null
./tools/simalpha submit --store "$FLEET_DIR/w1" --op shutdown \
    > /dev/null
wait "$W0_PID" "$W1_PID"
cmp "$FLEET_DIR/ref.jsonl" "$SERVE_DIR/serve.jsonl"
cmp "$FLEET_DIR/ref.jsonl" "$FLEET_DIR/fleet.jsonl"
echo "fleet smoke: OK (serve and 2-worker fleet streams byte-identical)"

# Process isolation and the thread pool: three worker processes or
# four pool threads settle in any order, but the executor releases in
# spec order, so the artifact and the master journal are
# byte-identical to an in-process --jobs 1 run.
PROC_DIR=$(stepdir proc)
./tools/simalpha --campaign smoke --isolate=process --shards 3 \
    --out "$PROC_DIR/proc.json" > /dev/null
./tools/simalpha --campaign smoke --jobs 4 \
    --out "$PROC_DIR/jobs4.json" > /dev/null
./tools/simalpha --campaign smoke --jobs 1 \
    --out "$PROC_DIR/ref.json" > /dev/null
for mode in proc jobs4; do
    cmp "$PROC_DIR/ref.json" "$PROC_DIR/$mode.json"
    cmp "$PROC_DIR/ref.json.journal.jsonl" \
        "$PROC_DIR/$mode.json.journal.jsonl"
done
echo "process smoke: OK (3-shard and --jobs 4 artifacts and journals byte-identical)"

# Slowpath reference: SIMALPHA_SLOWPATH=1 runs the original per-pipe
# issue scans and ROB walks beside the event-driven select and indexes,
# asserting they agree every cycle; the capped Table 3 must come out
# byte-identical to the fast path. The JSON artifact carries every
# counter (the CSV only cycles, insts and IPC).
SLOW_DIR=$(stepdir slow)
./tools/simalpha --campaign table3 --max-insts 20000 --jobs 2 \
    --no-journal --out "$SLOW_DIR/fast.json" > /dev/null
SIMALPHA_SLOWPATH=1 ./tools/simalpha --campaign table3 \
    --max-insts 20000 --jobs 2 --no-journal \
    --out "$SLOW_DIR/slow.json" > /dev/null
cmp "$SLOW_DIR/fast.json" "$SLOW_DIR/slow.json"
echo "slowpath table3: OK (every counter byte-identical to the fast path)"

# Sampled byte identity: checkpoints are in-memory deltas over each
# program's data image and never touch the store, so a sampled Table 3
# comes out byte-identical with no store, a cold store, the same store
# warm, --jobs 4, three worker processes, and the slowpath reference;
# so are their spec-ordered journals.
SAMPLE_DIR=$(stepdir sample)
sampled() {
    out=$1
    shift
    ./tools/simalpha --campaign table3 \
        --sample windows=10,len=1000,warmup=500 \
        --out "$SAMPLE_DIR/$out.json" "$@" > /dev/null
}
sampled ref --jobs 1
sampled cold --jobs 1 --store "$SAMPLE_DIR/store"
sampled warm --jobs 1 --store "$SAMPLE_DIR/store"
sampled jobs4 --jobs 4
sampled proc --isolate=process --shards 3
SIMALPHA_SLOWPATH=1 sampled slow --jobs 1
for mode in cold warm jobs4 proc slow; do
    cmp "$SAMPLE_DIR/ref.json" "$SAMPLE_DIR/$mode.json"
done
for mode in cold warm jobs4 proc slow; do
    cmp "$SAMPLE_DIR/ref.json.journal.jsonl" \
        "$SAMPLE_DIR/$mode.json.journal.jsonl"
done
echo "sampled table3: OK (six modes byte-identical)"

# Shared workloads: the cells of one run share one program per
# workload. Table 5 is config-major, so every pool thread shares every
# program, and each worker process runs its slice as one run; its
# capped run must be byte-identical at --jobs 1, at --jobs 4 and in
# three worker processes, artifacts and spec-ordered journals alike.
T5_DIR=$(stepdir t5)
table5() {
    out=$1
    shift
    ./tools/simalpha --campaign table5 --max-insts 20000 \
        --out "$T5_DIR/$out.json" "$@" > /dev/null
}
table5 ref --jobs 1
table5 jobs4 --jobs 4
table5 proc --isolate=process --shards 3
for mode in jobs4 proc; do
    cmp "$T5_DIR/ref.json" "$T5_DIR/$mode.json"
    cmp "$T5_DIR/ref.json.journal.jsonl" \
        "$T5_DIR/$mode.json.journal.jsonl"
done
echo "capped table5: OK (--jobs 1, --jobs 4 and 3 worker processes byte-identical)"

# Reset after strikes: pooled cores are reused from cell to cell, and a
# cache's reset clears only the lines it noted being filled or flipped.
# At --jobs 1 and --jobs 3 the pooled cores meet different strike
# histories, so a line a reset missed would show up as different
# cycles; the artifacts and vulnerability tables must be identical.
VULN_DIR=$(stepdir vuln)
for jobs in 1 3; do
    ./tools/simalpha vuln --workload C-Ca --max-insts 800000 --cells 60 \
        --machine sim-alpha --seed 7 --targets cachetag+tlbtag \
        --jobs "$jobs" --no-journal --out "$VULN_DIR/tags$jobs.json" \
        > /dev/null
done
for ext in "" .vuln.json .vuln.csv; do
    cmp "$VULN_DIR/tags1.json$ext" "$VULN_DIR/tags3.json$ext"
done
echo "tag strikes: OK (--jobs 1 and --jobs 3 byte-identical)"

# Both cores' selects against their slowpath references while strikes
# land: the window, issue-queue, LSQ, rename and register flips, with
# SIMALPHA_SLOWPATH=1 checking the ready sets against the original
# scans and walks in every cycle (RuuCore's walk selects after a
# strike; AlphaCore rebuilds its ready sets every cycle after one).
drill() {
    machine=$1
    shift
    ./tools/simalpha vuln --workload C-Ca --machine "$machine" --seed 7 \
        --targets rob+iq+lsq+renamemap+regfile --jobs 4 --no-journal \
        "$@" > /dev/null
}
for slow in 0 1; do
    SIMALPHA_SLOWPATH=$slow drill sim-outorder --max-insts 800000 \
        --cells 200 --out "$VULN_DIR/outorder$slow.json"
    SIMALPHA_SLOWPATH=$slow drill sim-alpha --max-insts 400000 \
        --cells 120 --out "$VULN_DIR/alpha$slow.json"
done
for machine in outorder alpha; do
    for ext in "" .vuln.json .vuln.csv; do
        cmp "$VULN_DIR/${machine}0.json$ext" "$VULN_DIR/${machine}1.json$ext"
    done
done
echo "strike drills: OK (sim-outorder and sim-alpha slowpath byte-identical)"

# Bench trajectory: a quick full measurement (every row) written
# through the trajectory-file writer, then read back by the schema
# check.
BENCH_DIR=$(stepdir bench)
./tools/simalpha bench --quick --out "$BENCH_DIR/perf.json" > /dev/null
./tools/simalpha bench --check "$BENCH_DIR/perf.json"
echo "bench quick: OK (measured, written and schema-checked)"

# Bench smoke: re-measure the detailed and emulator rows against the
# pinned baseline in BENCH_perf.json at the repo root and fail on a
# >20% ips regression. When the local build type differs from the
# baseline's, the ratios are reported but not enforced.
(cd .. && ./build/tools/simalpha bench --smoke)
echo "bench smoke: OK"

# The least-code aim's measure: the .cc/.hh lines under src/ and
# tools/, printed last so every run states the size it checked.
cd ..
echo "size: $(find src tools \( -name '*.cc' -o -name '*.hh' \) \
    -exec cat {} + | wc -l) .cc/.hh lines under src/ and tools/"
