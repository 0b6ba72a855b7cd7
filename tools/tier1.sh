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

# Serve smoke: daemon up, one capped campaign through the socket,
# clean shutdown — the CLI path the ctest suite exercises in-process.
# Its raw stream is checked against a --jobs 1 daemon's below.
SERVE_DIR=$(mktemp -d /tmp/simalpha-tier1-serve-XXXXXX)
trap 'rm -rf "$SERVE_DIR"' EXIT
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
FLEET_DIR=$(mktemp -d /tmp/simalpha-tier1-fleet-XXXXXX)
trap 'rm -rf "$SERVE_DIR" "$FLEET_DIR"' EXIT
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
PROC_DIR=$(mktemp -d /tmp/simalpha-tier1-proc-XXXXXX)
trap 'rm -rf "$SERVE_DIR" "$FLEET_DIR" "$PROC_DIR"' EXIT
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
SLOW_DIR=$(mktemp -d /tmp/simalpha-tier1-slow-XXXXXX)
trap 'rm -rf "$SERVE_DIR" "$FLEET_DIR" "$PROC_DIR" "$SLOW_DIR"' EXIT
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
SAMPLE_DIR=$(mktemp -d /tmp/simalpha-tier1-sample-XXXXXX)
trap 'rm -rf "$SERVE_DIR" "$FLEET_DIR" "$PROC_DIR" "$SLOW_DIR" "$SAMPLE_DIR"' EXIT
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

# Bench smoke: re-measure the detailed and emulator rows against the
# pinned baseline in BENCH_perf.json at the repo root and fail on a
# >20% ips regression. When the local build type differs from the
# baseline's, the ratios are reported but not enforced.
(cd .. && ./build/tools/simalpha bench --smoke)
echo "bench smoke: OK"
