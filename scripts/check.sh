#!/usr/bin/env bash
# Repository gate: formatting, lints, tests. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
cargo test --workspace -q
cargo bench -p bench --no-run

# The benchmark is a package of its own that drives the pipeline through
# its public API; building it and running its smoke test here makes
# removing an API it calls fail the gate.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Artifact-store smoke test: a warm `analyze --cache-dir` run must hit
# the cache (no misses, no writes) and reproduce the cold run's report
# byte for byte.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cargo run --release -q -p cli -- generate ntp 120 "$tmp/smoke.pcap" --seed 11
cargo run --release -q -p cli -- analyze "$tmp/smoke.pcap" --cache-dir "$tmp/cache" \
    >"$tmp/cold.out" 2>"$tmp/cold.err"
cargo run --release -q -p cli -- analyze "$tmp/smoke.pcap" --cache-dir "$tmp/cache" \
    >"$tmp/warm.out" 2>"$tmp/warm.err"
grep -q 'cache: hits=0' "$tmp/cold.err"
grep -Eq 'cache: hits=[1-9][0-9]* misses=0 writes=0' "$tmp/warm.err"
cmp "$tmp/cold.out" "$tmp/warm.out"
echo "store smoke test: warm run hit the cache and reproduced the cold report"

# Mmap-fallback equivalence smoke test: the same warm run with the
# zero-copy mmap read path disabled (plain heap reads) must still hit
# the cache and produce the identical report — the read strategy is an
# I/O knob, never a result knob.
FTC_STORE_NO_MMAP=1 cargo run --release -q -p cli -- analyze "$tmp/smoke.pcap" \
    --cache-dir "$tmp/cache" >"$tmp/warm-heap.out" 2>"$tmp/warm-heap.err"
grep -Eq 'cache: hits=[1-9][0-9]* misses=0 writes=0' "$tmp/warm-heap.err"
cmp "$tmp/warm.out" "$tmp/warm-heap.out"
echo "mmap smoke test: heap-read warm run reproduced the mmap warm report byte for byte"

# Append smoke test: analyzing a capture and then its grown version
# against one cache directory must extend the cached matrices (the
# segment and message matrices grow from the shorter capture's prefix)
# and still print the report a cache-less run of the grown capture
# prints. The generator is sequentially seeded, so the 80-message
# capture must be an exact prefix of the 120-message one.
cargo run --release -q -p cli -- generate dns 80 "$tmp/append80.pcap" --seed 51
cargo run --release -q -p cli -- generate dns 120 "$tmp/append120.pcap" --seed 51
cmp -n "$(stat -c %s "$tmp/append80.pcap")" "$tmp/append80.pcap" "$tmp/append120.pcap"
cargo run --release -q -p cli -- analyze "$tmp/append80.pcap" --cache-dir "$tmp/append-cache" \
    --report "$tmp/append80.md" 2>/dev/null
cargo run --release -q -p cli -- analyze "$tmp/append120.pcap" --cache-dir "$tmp/append-cache" \
    --report "$tmp/append-warm.md" 2>"$tmp/append-warm.err"
cargo run --release -q -p cli -- analyze "$tmp/append120.pcap" --report "$tmp/append-cold.md"
cmp "$tmp/append-warm.md" "$tmp/append-cold.md"
grep -Eq 'extended=[1-9]' "$tmp/append-warm.err"
echo "append smoke test: the grown capture extended cached matrices and matched a cache-less report"

# Append-chain smoke test: the DNS capture grows in three steps against
# one cache directory (80 -> 100 -> 120 -> 140 messages), so each step
# stores its grown segment and message matrices as tail links onto the
# previous step's. After every step the warm report must equal a
# cache-less one, and every grown step must extend. Deleting the links
# written at 100 messages (one in the middle of each matrix chain) must
# then read as a miss and still reproduce the cache-less report.
for n in 80 100 120 140; do
    cargo run --release -q -p cli -- generate dns "$n" "$tmp/chain$n.pcap" --seed 51
    before="$(ls "$tmp/chain-cache" 2>/dev/null | grep '^dissim-' || true)"
    cargo run --release -q -p cli -- analyze "$tmp/chain$n.pcap" --cache-dir "$tmp/chain-cache" \
        --report "$tmp/chain-warm$n.md" 2>"$tmp/chain$n.err"
    cargo run --release -q -p cli -- analyze "$tmp/chain$n.pcap" --report "$tmp/chain-cold$n.md"
    cmp "$tmp/chain-warm$n.md" "$tmp/chain-cold$n.md"
    if [ "$n" -gt 80 ]; then
        grep -Eq 'extended=[1-9]' "$tmp/chain$n.err"
    fi
    if [ "$n" = 100 ]; then
        mid_links="$(comm -13 <(echo "$before") <(ls "$tmp/chain-cache" | grep '^dissim-'))"
    fi
done
[ "$(wc -l <<<"$mid_links")" = 2 ] || { echo "expected two links at 100 messages" >&2; exit 1; }
for link in $mid_links; do
    rm "$tmp/chain-cache/$link"
done
cargo run --release -q -p cli -- analyze "$tmp/chain140.pcap" --cache-dir "$tmp/chain-cache" \
    --report "$tmp/chain-broken.md" 2>"$tmp/chain-broken.err"
cmp "$tmp/chain-broken.md" "$tmp/chain-cold140.md"
grep -Eq 'misses=[1-9]' "$tmp/chain-broken.err"
echo "append-chain smoke test: three growth steps matched cache-less reports, and so did a run with mid-chain links deleted"

# Neighbor-backend equivalence smoke test: the same capture analyzed
# through every neighbor backend (matrix row scans + k-NN table, tiled
# build + merged k-NN table, length-stratified forests) must produce
# byte-identical reports — the backend is a performance knob, never a
# result knob. The NTP capture's NEMESYS segments are mixed-length, so
# the stratified run must also report nonzero prune counters: its speed
# comes from skipping work, and the counters prove the skipping actually
# happened. The fixed-width pair covers uniform-length input, where the
# stratified index is a single vp-forest stratum: its report must match
# the matrix run's and its in-stratum metric pruning must fire. Under
# `auto` a report reads the field matrix off message typing's segment
# matrix, so its report joins the comparison too.
cargo run --release -q -p cli -- analyze "$tmp/smoke.pcap" --neighbor-backend auto \
    --report "$tmp/backend-auto.md"
cargo run --release -q -p cli -- analyze "$tmp/smoke.pcap" --neighbor-backend matrix \
    --report "$tmp/backend-matrix.md"
cargo run --release -q -p cli -- analyze "$tmp/smoke.pcap" --neighbor-backend tiled --tile-rows 64 \
    --report "$tmp/backend-tiled.md"
cargo run --release -q -p cli -- analyze "$tmp/smoke.pcap" --neighbor-backend stratified \
    --report "$tmp/backend-stratified.md" 2>"$tmp/backend-stratified.err"
cargo run --release -q -p cli -- analyze "$tmp/smoke.pcap" --segmenter fixed \
    --neighbor-backend matrix --report "$tmp/backend-fixed-matrix.md"
cargo run --release -q -p cli -- analyze "$tmp/smoke.pcap" --segmenter fixed \
    --neighbor-backend stratified --report "$tmp/backend-fixed-stratified.md" \
    2>"$tmp/backend-fixed-stratified.err"
cmp "$tmp/backend-matrix.md" "$tmp/backend-auto.md"
cmp "$tmp/backend-matrix.md" "$tmp/backend-tiled.md"
cmp "$tmp/backend-matrix.md" "$tmp/backend-stratified.md"
grep -Eq 'neighbors: kernel_evals=[1-9][0-9]* pruned=[1-9][0-9]*' "$tmp/backend-stratified.err"
cmp "$tmp/backend-fixed-matrix.md" "$tmp/backend-fixed-stratified.md"
grep -Eq 'neighbors: kernel_evals=[1-9][0-9]* pruned=[1-9][0-9]*' "$tmp/backend-fixed-stratified.err"
echo "backend smoke test: auto, matrix, tiled and stratified reports are byte-identical, mixed and fixed-width"

# Stratified thread-invariance smoke test: the stratified backend builds
# its k-NN table and the clustering stage's one region table (each
# cross-stratum pair evaluated from its longer end and mirrored) on
# parallel workers. Neither the report nor the neighbor counters may
# depend on the thread count.
for t in 1 4; do
    cargo run --release -q -p cli -- analyze "$tmp/smoke.pcap" --neighbor-backend stratified \
        --threads "$t" --report "$tmp/stratified-t$t.md" 2>"$tmp/stratified-t$t.err"
    grep -E 'neighbors: kernel_evals=[1-9][0-9]* pruned=[0-9]+ strata_skipped=[0-9]+' \
        "$tmp/stratified-t$t.err" >"$tmp/stratified-t$t.counters"
done
cmp "$tmp/stratified-t1.md" "$tmp/stratified-t4.md"
cmp "$tmp/stratified-t1.counters" "$tmp/stratified-t4.counters"
# The session's stage record: the same stages in the same order with the
# same per-stage counters at 1, 2 and 4 threads (walls excluded).
cargo run --release -q -p cli -- analyze "$tmp/smoke.pcap" --neighbor-backend stratified \
    --threads 2 --report "$tmp/stratified-t2.md" 2>"$tmp/stratified-t2.err"
cmp "$tmp/stratified-t1.md" "$tmp/stratified-t2.md"
for t in 1 2 4; do
    sed -nE 's/^stage ([a-z]+): wall=[0-9.]+s (kernel_evals=[0-9]+ pruned=[0-9]+ strata_skipped=[0-9]+)$/\1 \2/p' \
        "$tmp/stratified-t$t.err" >"$tmp/stratified-t$t.stages"
    grep -Eq '^cluster kernel_evals=[1-9]' "$tmp/stratified-t$t.stages"
    grep -q '^report ' "$tmp/stratified-t$t.stages"
done
cmp "$tmp/stratified-t1.stages" "$tmp/stratified-t2.stages"
cmp "$tmp/stratified-t1.stages" "$tmp/stratified-t4.stages"
echo "stratified smoke test: reports and neighbor counters at 1 and 4 threads are identical"

# Refinement smoke test: NEMESYS segments of a 170-message SMB capture
# merge over four rounds (the fifth finds the fix point), so the
# incremental merge rounds — links derived from merged parts, only pairs
# with a merged side re-decided — run on real data. The matrix and
# stratified reports must be byte-identical at 1 and 4 threads, and the
# stratified neighbor counters, which include refinement's pair rows,
# must not depend on the thread count.
cargo run --release -q -p cli -- generate smb 170 "$tmp/refine.pcap" --seed 3
for t in 1 4; do
    cargo run --release -q -p cli -- analyze "$tmp/refine.pcap" --neighbor-backend matrix \
        --threads "$t" --report "$tmp/refine-matrix-t$t.md"
    cargo run --release -q -p cli -- analyze "$tmp/refine.pcap" --neighbor-backend stratified \
        --threads "$t" --report "$tmp/refine-stratified-t$t.md" 2>"$tmp/refine-stratified-t$t.err"
    grep -E 'neighbors: kernel_evals=[1-9][0-9]* pruned=[0-9]+ strata_skipped=[0-9]+' \
        "$tmp/refine-stratified-t$t.err" >"$tmp/refine-stratified-t$t.counters"
    cmp "$tmp/refine-matrix-t1.md" "$tmp/refine-matrix-t$t.md"
    cmp "$tmp/refine-matrix-t1.md" "$tmp/refine-stratified-t$t.md"
done
cmp "$tmp/refine-stratified-t1.counters" "$tmp/refine-stratified-t4.counters"
# The capture's first ε yields a dominating cluster, so §III-E's trimmed
# rerun fires: its DBSCAN at ε′ filters the first run's region table,
# and the reports compared above pin it against the matrix backend.
cargo run --release -q -p cli -- analyze "$tmp/refine.pcap" --neighbor-backend stratified \
    >"$tmp/refine-stratified.out" 2>/dev/null
grep -q '(TrimmedKnee)' "$tmp/refine-stratified.out"
echo "refine smoke test: SMB matrix and stratified reports at 1 and 4 threads are byte-identical"

# Message-typing thread-invariance smoke test: the alignment build hands
# outer message rows to parallel workers, and on fixed-width segments it
# substitutes from the field matrix itself (no segment is short). The
# report, message types included, must not depend on the thread count.
cargo run --release -q -p cli -- analyze "$tmp/smoke.pcap" --segmenter fixed --threads 1 \
    --report "$tmp/fixed-t1.md"
cargo run --release -q -p cli -- analyze "$tmp/smoke.pcap" --segmenter fixed --threads 4 \
    --report "$tmp/fixed-t4.md"
grep -q '^## Message types' "$tmp/fixed-t1.md"
cmp "$tmp/fixed-t1.md" "$tmp/fixed-t4.md"
echo "msgtype smoke test: fixed-width reports at 1 and 4 threads are byte-identical"

# Peak-RSS smoke test: the tiled out-of-core build at u=2000 must stay
# under a fixed 16 MiB budget — below what materializing the full
# condensed matrix (16 MB at u=2000) on top of the process baseline
# would need. `tiledmem` exits nonzero when its own VmHWM exceeds the
# budget; where GNU time is available, cross-check its measurement too.
# Both RSS smokes run with `$tmp` as the working directory: the records
# they upsert land in a scratch `BENCH_trajectory.json` there (their
# commit lookup reads "unknown" outside a git checkout), so a passing
# gate leaves the tracked trajectory file untouched.
rss_budget=16777216
bin="$PWD/target/release"
cargo build --release -q -p bench --bin tiledmem
if [ -x /usr/bin/time ]; then
    (cd "$tmp" && /usr/bin/time -v "$bin/tiledmem" 2000 256 "$rss_budget" 2>"$tmp/time.err")
    rss_kb=$(awk '/Maximum resident set size/ {print $NF}' "$tmp/time.err")
    if [ "$((rss_kb * 1024))" -gt "$rss_budget" ]; then
        echo "tiled build peak RSS ${rss_kb} kB exceeds budget ${rss_budget} B" >&2
        exit 1
    fi
else
    (cd "$tmp" && "$bin/tiledmem" 2000 256 "$rss_budget")
fi
echo "rss smoke test: tiled build at u=2000 stayed under $rss_budget bytes"

# Same budget for the matrix-free stratified path: the ladder's budget
# mode skips the matrix oracle rungs and self-checks VmHWM, so the
# stratified ε-search at u=2000 — on the uniform corpus (one vp-forest
# stratum) and the mixed-length one, each including the batched parallel
# query pass, which every rung runs and pins bit-identical to the scalar
# queries — must fit where the full matrix would not.
cargo build --release -q -p bench --bin neighbor_ladder
(cd "$tmp" && "$bin/neighbor_ladder" 2000 128 "$rss_budget" >"$tmp/ladder.out")
grep -q '^neighbor_ladder: u=2000 backend=stratified+batch' "$tmp/ladder.out"
grep -q 'corpus=mixed u=2000 backend=stratified+batch' "$tmp/ladder.out"
grep -q 'corpus=mixed u=2000 stratified_speedup_vs_linear' "$tmp/ladder.out"
# Merge refinement reads each member pair exactly once, whatever the
# number of merge rounds: N(N-1)/2 pairs for N members entering it.
refine_line=$(grep 'corpus=mixed u=2000 refine' "$tmp/ladder.out")
members=$(sed -nE 's/.* members=([0-9]+) .*/\1/p' <<<"$refine_line")
pair_evals=$(sed -nE 's/.* pair_evals=([0-9]+) .*/\1/p' <<<"$refine_line")
if [ -z "$members" ] || [ "$pair_evals" != "$((members * (members - 1) / 2))" ]; then
    echo "refine read $pair_evals pairs for $members members, expected N(N-1)/2" >&2
    exit 1
fi
echo "rss smoke test: stratified search at u=2000, uniform and mixed, stayed under $rss_budget bytes"

# Daemon smoke test: ftcd on an ephemeral port must serve a report
# byte-identical to the offline CLI's, report sane stats, and exit 0
# after a draining shutdown.
cargo build --release -q -p serve --bin ftcd
cargo run --release -q -p cli -- generate dns 80 "$tmp/daemon.pcap" --seed 21
cargo run --release -q -p cli -- analyze "$tmp/daemon.pcap" --report "$tmp/offline.md"
./target/release/ftcd --addr 127.0.0.1:0 --port-file "$tmp/port" &
ftcd_pid=$!
for _ in $(seq 1 100); do
    [ -s "$tmp/port" ] && break
    sleep 0.1
done
[ -s "$tmp/port" ] || { echo "ftcd never wrote its port file" >&2; exit 1; }
addr="127.0.0.1:$(cat "$tmp/port")"
cargo run --release -q -p cli -- submit "$tmp/daemon.pcap" --addr "$addr" --report "$tmp/daemon.md"
cmp "$tmp/offline.md" "$tmp/daemon.md"
cargo run --release -q -p cli -- stats --addr "$addr" | tee "$tmp/stats.out"
grep -q 'accepted=1 rejected=0 cancelled=0 completed=1 failed=0 queued=0' "$tmp/stats.out"
cargo run --release -q -p cli -- shutdown --addr "$addr"
wait "$ftcd_pid"
echo "daemon smoke test: ftcd report matched the offline CLI byte for byte and drained cleanly"

# Streaming smoke test: a capture appended in 3 slices under `follow`
# must produce one drift record per slice and a final report
# byte-identical to a one-shot `analyze` of the full capture. The
# generator is sequentially seeded, so the 40-message capture is an
# exact prefix of the 80- and 120-message ones; `mv` swaps each larger
# version into place atomically, exactly how the follow-mode docs tell
# writers to grow a capture.
for n in 40 80 120; do
    cargo run --release -q -p cli -- generate ntp "$n" "$tmp/slice$n.pcap" --seed 31
done
cargo run --release -q -p cli -- follow "$tmp/grow.pcap" \
    --batches 3 --batch-msgs 40 --batch-interval 100 --idle-exit 30000 \
    --drift-log "$tmp/drift.jsonl" --report "$tmp/follow.md" &
follow_pid=$!
for n in 40 80 120; do
    sleep 0.7
    mv "$tmp/slice$n.pcap" "$tmp/grow.pcap"
done
wait "$follow_pid"
drift_records=$(wc -l <"$tmp/drift.jsonl")
if [ "$drift_records" -lt 3 ]; then
    echo "follow produced $drift_records drift records, expected >= 3" >&2
    exit 1
fi
grep -q '"batch":0' "$tmp/drift.jsonl"
grep -q '"refine":' "$tmp/drift.jsonl"
cargo run --release -q -p cli -- generate ntp 120 "$tmp/full.pcap" --seed 31
cargo run --release -q -p cli -- analyze "$tmp/full.pcap" --report "$tmp/oneshot.md"
cmp "$tmp/follow.md" "$tmp/oneshot.md"
echo "streaming smoke test: 3 follow batches drifted and converged to the one-shot report byte for byte"

# State-machine smoke test: inferring a machine from a multi-flow
# capture must emit byte-identical DOT across thread counts, and the
# warm run must serve the persisted machine without rebuilding anything
# (no misses, no writes).
cargo run --release -q -p cli -- generate ntp 60 "$tmp/fsm.pcap" --seed 41
cargo run --release -q -p cli -- statemachine "$tmp/fsm.pcap" --cache-dir "$tmp/fsm-cache" \
    --threads 1 --dot "$tmp/fsm-t1.dot" 2>"$tmp/fsm-cold.err"
cargo run --release -q -p cli -- statemachine "$tmp/fsm.pcap" --cache-dir "$tmp/fsm-cache" \
    --threads 4 --dot "$tmp/fsm-t4.dot" 2>"$tmp/fsm-warm.err"
cmp "$tmp/fsm-t1.dot" "$tmp/fsm-t4.dot"
grep -q '^digraph' "$tmp/fsm-t1.dot"
grep -q 'cache: hits=0' "$tmp/fsm-cold.err"
grep -Eq 'cache: hits=[1-9][0-9]* misses=0 writes=0' "$tmp/fsm-warm.err"
echo "fsm smoke test: DOT is thread-invariant and the warm run rebuilt nothing"
