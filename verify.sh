#!/bin/sh
# Full verification: build, vet, tests (with race detector), examples,
# and a smoke pass over the figure harness and benchmarks.
set -eux

go build ./...
# The portable fallback of the streaming line flush (internal/part
# stream_other.go) builds where the amd64 assembly does not.
GOOS=linux GOARCH=arm64 go build ./...
go vet ./...
# Format lane: every Go file is gofmt-clean.
test -z "$(gofmt -l .)"
# Docs lint: godoc coverage, the cmd/* "Command <name>" convention, and
# every registered metric family present in the operator runbook.
go run ./cmd/doccheck -ops OPERATIONS.md
go test ./...
# Repeatability: the obs tests share the process-wide registry and count
# descriptors against a leak baseline, so run them twice in one process.
go test -count=2 -short ./internal/obs/
go test -race ./internal/part/ ./internal/sortalgo/ .
go test -race -short ./internal/ws/
# The external sort runs formation and delivery on concurrent workers:
# its own tests (forced spills, faults, corrupt extents, cancels) under
# the race detector.
go test -race -short -count=1 ./internal/extsort/
# MSB under the race detector on its own, uncached: the shared-prefix
# digits at 1 and 2 threads, the local/cache split of its stats, and the
# out-of-place bucket sort the external sort's delivery workers run.
go test -race -short -count=1 -run 'MSB' ./internal/sortalgo/
go run ./cmd/figures -quick > /dev/null
go run ./cmd/sortcli -n 100000 -algo lsb > /dev/null
# LSB's single-worker passes out of cache (lsbSingle), whose full lines
# go out as streaming stores, checked against the input multiset.
go run ./cmd/sortcli -n 4194304 -algo lsb -dist dense -threads 1 -verify > /dev/null
# NUMA-aware MSB end to end: the metered block permutation on 4 regions,
# output checked against the input multiset.
go run ./cmd/sortcli -n 200000 -algo msb -threads 4 -regions 4 -verify > /dev/null
# MSB past the cache bound on one worker and on two: every local pass
# over a segment above 16384 64-bit / 32768 32-bit tuples is a
# single-worker block permutation. On two workers the 32-bit lane's
# 8-bit first pass leaves cache-resident buckets.
go run ./cmd/sortcli -n 2000000 -algo msb -width 64 -threads 1 -verify > /dev/null
go run ./cmd/sortcli -n 2000000 -algo msb -width 32 -threads 2 -verify > /dev/null
# MSB's parallel first pass on one radix digit sized from n: 2^22 64-bit
# pairs take a 9-bit digit on two workers; the Zipf lane's heavy keys
# leave buckets past the cache bound, which take local passes.
go run ./cmd/sortcli -n 4194304 -algo msb -width 64 -threads 2 -verify > /dev/null
go run ./cmd/sortcli -n 2097152 -algo msb -width 64 -threads 2 -dist zipf -verify > /dev/null
# MSB wholly in its in-cache branch on one worker: 16000 64-bit Zipf keys
# stay below the 16384-tuple cache bound, and the heavy keys make parts
# above the insertion cutoff, which are copied back from the scatter
# buffer and recursed into.
go run ./cmd/sortcli -n 16000 -algo msb -width 64 -threads 1 -dist zipf -verify > /dev/null
# CMP end to end with its in-cache quicksort leaf; the Zipf lane adds
# single-key partitions and duplicate-heavy leaves, and the 32-bit lane
# runs the range index on 32-bit keys.
go run ./cmd/sortcli -n 200000 -algo cmp -width 64 -threads 2 -verify > /dev/null
go run ./cmd/sortcli -n 200000 -algo cmp -width 64 -threads 2 -dist zipf -verify > /dev/null
go run ./cmd/sortcli -n 200000 -algo cmp -width 32 -threads 2 -verify > /dev/null
# Single-threaded CMP runs the in-place block-permutation first pass; the
# NUMA-aware CMP (4 regions) is CMP's one layout that still takes a tmp
# pair: its first pass is the NUMA-aware partition + cross-region shuffle
# it shares with LSB, driven by a codes column.
go run ./cmd/sortcli -n 200000 -algo cmp -width 64 -threads 1 -verify > /dev/null
go run ./cmd/sortcli -n 200000 -algo cmp -width 64 -threads 4 -regions 4 -verify > /dev/null
# The same shared first pass under NUMA-aware LSB (hybrid range-radix
# function, no codes column), then region-local radix passes.
go run ./cmd/sortcli -n 2000000 -algo lsb -threads 4 -regions 4 -verify > /dev/null
# CMP past one range pass: 6M keys leave ~16.7k-tuple top-level
# partitions at the 360-way fanout cap, about the 16384-tuple cache
# bound, so about two thirds take a second pass: a single-worker in-place
# block permutation whose fanout (5-way) and sample are sized from the
# partition. The NUMA lane recurses on keys after the cross-region
# shuffle. At 2^23, the shape that ran at half of CMP's 2^21 throughput
# while every second pass was 360-way and sampled 64 keys a partition,
# most ~23k-tuple partitions take a small second pass.
go run ./cmd/sortcli -n 6000000 -algo cmp -width 64 -threads 2 -verify > /dev/null
go run ./cmd/sortcli -n 6000000 -algo cmp -width 64 -threads 4 -regions 4 -verify > /dev/null
go run ./cmd/sortcli -n 8388608 -algo cmp -width 64 -threads 2 -verify > /dev/null
# Range index: Partition and LookupBatch fuzzed against binary search.
go test -run '^$' -fuzz '^FuzzRangeIndex$' -fuzztime 10s .
# Spill read-back: flipped, zeroed or truncated bytes in the spill file,
# at delivery start or just before an overflowing bucket is read, end in
# ErrCorrupt or a correct sort, never in a panic, a wrong sort or a
# leaked temp file.
go test -run '^$' -fuzz '^FuzzSpillReadback$' -fuzztime 10s ./internal/extsort
# Machine profiles are an untrusted boundary: arbitrary bytes given to
# tune.Load end in an error or a valid profile that round-trips through
# Save, never in a panic.
go test -run '^$' -fuzz '^FuzzLoadMachineProfile$' -fuzztime 10s ./internal/tune
# Every option field through one hardened attempt, and SortExternalCtx
# on a workspace under fuzzed budgets, below the spill planner's floor
# too: a sorted permutation or a typed error, never a panic, never a
# *ResourceError from a spill capped at its plan's MemBytes, and an empty
# spill dir.
go test -run '^$' -fuzz '^FuzzTryOptions$' -fuzztime 10s -parallel 2 .
# sortd's two untrusted decoders: the /v1/sort JSON codec, diffed
# against encoding/json, and the raw-TCP frame reader; arbitrary bytes
# end in a request or a typed rejection, never in a panic. A 2 s
# minimization keeps a new input from stalling the lane for a minute.
go test -run '^$' -fuzz '^FuzzDecodeSortRequest$' -fuzztime 10s -fuzzminimizetime 2s -parallel 1 ./internal/server
go test -run '^$' -fuzz '^FuzzReadTCPRequest$' -fuzztime 10s -fuzzminimizetime 2s -parallel 1 ./internal/server
go run ./cmd/partcli -n 100000 -variant sync -threads 4 > /dev/null
go run ./cmd/tracecli -n 65536 -fanout 512 > /dev/null
go test -run xxx -bench 'Fig03|Fig09' -benchtime 0.2s . > /dev/null

# Zero-allocation benchmarks: the workspace-backed kernels must report
# 0 allocs/op (BENCH_PR2.json in the repo records the full-length run).
benchout=$(mktemp)
go run ./cmd/benchjson -benchtime 2x -out "$benchout"
grep -q '"allocs_op": 0' "$benchout"
rm -f "$benchout"

# Perf-regression gate: the recorded benchmark trajectory must not regress.
# Each PR records its AutoTune run as BENCH_PR<n>.json — use
#   benchjson -bench AutoTune -count 6 -agg min -out BENCH_PR<n>.json
# (fastest-of-6: scheduler noise is additive, so the minimum is the robust
# estimator on a shared machine). benchdiff fails if any benchmark in the
# newer file is >5% slower than the older. To check the working tree
# against the recorded baseline, record a fresh file and diff it the same
# way.
# -require-all: a recording that drops a baseline benchmark fails the
# gate instead of passing silently.
go run ./cmd/benchdiff -require-all BENCH_PR9.json BENCH_PR10.json

# Observability smoke: the CLI writes a trace and -json stats, and a
# degenerate input still runs. Under the race detector: LSB run under
# sortcli's metrics-sink tee must produce a well-formed Chrome trace with
# pass spans and spans from every worker, and span histograms that match
# the trace span for span (TestTraceReconcilesSpanHist; the counter
# invariant tuples_partitioned == passes * n is TestLSBCounterReconciliation
# in the tier-1 suite above); the metrics endpoint
# scraped mid-sort must serve valid Prometheus text with every expected
# family, consistent histograms, a JSON expvar view and algo-labelled
# profiles, and shut down leaking nothing (TestMetricsEndpointMidSort).
obsdir=$(mktemp -d)
trap 'rm -rf "$obsdir"' EXIT
go run ./cmd/sortcli -n 200000 -algo lsb -threads 4 -trace "$obsdir/t.json" -json > /dev/null
go run ./cmd/sortcli -n 0 -algo lsb -trace "$obsdir/empty.json" -json > /dev/null
go test -race -short -count=1 -run 'TestTraceReconcilesSpanHist|TestMetricsEndpointMidSort' .
go run ./cmd/partcli -n 100000 -variant sync -threads 4 -stats > /dev/null
go test -run xxx -bench ObsOverhead -benchtime 0.2s ./internal/part/ > /dev/null

# Hardened execution: the fault-injection matrix (every site x every sort,
# the external sort's spill writer and in-place overflow sort included)
# must contain worker panics as *InternalError with the input left a
# permutation, no goroutine or temp resource leaks and an empty spill
# dir, under the race detector too.
# TestTryFaultMSBLocalPass and TestTryCancelRace include one-thread MSB
# rows that fault or cancel inside the in-cache branch's recursion.
go test -race -short -count=1 -run 'TestTryFaultMatrix|TestTryFaultMSBLocalPass|TestTryCancelRace|TestTryPartitionFault' .

# External sort: a forced spill several times the memory budget must
# produce a sorted permutation with exactly one streaming formation pass,
# and a cancelled or faulted (spill writer and overflow sort) call must
# leave a permutation; every call must leave an empty temp dir and no
# fd/goroutine/temp-resource leaks. TestSpillPlanCoversMeasuredPeak runs
# the in-place sort of overflowing buckets on the plan's worker count
# (Zipf rows, 1 to 4 threads) and checks its peak against the plan.
go test -race -short -count=1 -run 'TestSortExternal|TestSpillPlanCoversMeasuredPeak' .

# Resilient execution: the seeded chaos matrix ({LSB, MSB, CMP} x
# {workspace, none}, TestResilientChaosMatrix) must end every supervised
# run in a retried success or a cleanly classified typed error —
# permutation intact, no goroutine leaks, no workspace-byte creep — with
# single-threaded lanes replaying byte-identical event logs, and
# TestResilientDegradeOnResourceError proves ResourceError -> in-place
# degradation. The supervisor's clean first-try path must stay
# allocation-free, and the race detector guards the schedule's
# concurrent budget claims.
go test -race -short -count=1 -run 'TestResilient|TestScheduleConcurrentBudget|TestStress' . ./internal/fault/

# Auto-tuning: quick calibration must produce a valid, reloadable profile
# and a plan (the tuned-vs-static agreement and regression-bound witnesses
# — TestAutoTuneMatchesStatic, BenchmarkAutoTune — run in the suite above
# and in BENCH_PR4.json respectively).
go run ./cmd/tunecli -quick -out "$obsdir/profile.json" -plan-n 1000000 > /dev/null
go run ./cmd/tunecli -load "$obsdir/profile.json" -plan-maxbytes 1048576 > /dev/null

# Sort-as-a-service smoke: start the daemon, drive it with concurrent
# load (sortload verifies every response and scrapes /metrics mid-load,
# failing unless the server families are being served), then SIGTERM —
# a clean drain (ledger and arenas at zero) is sortd exit code 0. The
# daemon runs with a 4 MiB memory ledger and a spill dir, and roughly
# one request in eight is a 262144-key -large LSB request, charged its
# ~4.6 MB footprint, that overflows the ledger — exercising the
# over-budget degradation onto the external sort under concurrent load
# (every response still verified sorted). The lane fails unless at
# least one large response came back spilled.
go test ./internal/server/
go build -o "$obsdir/sortd" ./cmd/sortd
go build -o "$obsdir/sortload" ./cmd/sortload
mkdir -p "$obsdir/spill"
"$obsdir/sortd" -addr 127.0.0.1:18070 -metrics-addr 127.0.0.1:18090 \
    -max-aux 4194304 -spill-dir "$obsdir/spill" -drain-timeout 30s &
sortd_pid=$!
"$obsdir/sortload" -addr 127.0.0.1:18070 -clients 16 -requests 400 -n 2048 \
    -large-n 262144 -large-every 8 \
    -wait 15s -metrics-url http://127.0.0.1:18090/metrics > "$obsdir/sortload.out"
cat "$obsdir/sortload.out"
grep -Eq '^sortload: \[large\] .* [1-9][0-9]* spilled in ' "$obsdir/sortload.out"
kill -TERM "$sortd_pid"
wait "$sortd_pid"
# A drained daemon leaves no spill files behind.
test -z "$(ls -A "$obsdir/spill")"

echo "verify: OK"
