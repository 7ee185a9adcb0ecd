#!/bin/sh
# check.sh — the tier-1+ verification gate (see ROADMAP.md).
#
# Usage: ./check.sh [-fast] [-only <gate>]
#
#   -fast         skip the fuzz smoke, sweep-reuse, autopilot, sweepd,
#                 and perfbench gates (the slowest five); everything
#                 else runs.
#                 Use for inner-loop iteration; CI and pre-merge runs
#                 use the full gate.
#   -only <gate>  run a single gate by id (tool binaries are still
#                 built so every gate stays self-contained). Gate ids:
#                 fmt vet build lint lint-determinism test fuzz runq
#                 hotpath hotpath-bench sampling tpar wpar sweepreuse
#                 autopilot sweepd perfbench schema
#
# Each gate's wall-clock time is printed when the next gate starts, and
# a per-gate timing summary table is printed at the end.
#
# Runs, in order:
#   1. gofmt -l            (no unformatted files)
#   2. go vet ./...        (stdlib vet)
#   3. go build ./...      (everything compiles)
#   4. ucplint ./...       (custom determinism / hardware-invariant
#                           lints, including the interprocedural
#                           seedflow/mergeorder/sharedstate/mapemit/
#                           hotalloc dataflow rules; runs with -json
#                           against .ucplint-baseline.json — exit 0
#                           clean, 1 findings, 2 load error)
#   5. ucplint -determinism (two seeded runs must byte-match)
#   6. go test -race ./... (full suite under the race detector)
#   7. fuzz smoke          (each internal/trace fuzz target, the
#                           internal/sim checkpoint-restore target and
#                           the internal/sweepd submit-decode target, 5s)
#   8. runq determinism    (quick sweep at -jobs 1 vs -jobs 8 vs a warm
#                           cache must be byte-identical; wall-clock
#                           ratios are recorded in BENCH_runq.json but
#                           never gated — timing is machine noise)
#   9. hotpath gate        (quick-sweep determinism digests must byte-
#                           match testdata/hotpath_digest.golden — every
#                           optimization is provably outcome-neutral —
#                           and a BenchmarkSimQuick smoke records
#                           insts/s + allocs/inst into BENCH_hotpath.json)
#  10. sampling gate       (experiments -gate sampling: paired
#                           full-vs-sampled sweep in one process:
#                           per-point IPC error must stay under 2% and
#                           the aggregate wall-clock speedup at or above
#                           10x; measurements land in BENCH_sampling.json;
#                           the sampled side must digest identically twice)
#  11. time-parallel gate  (experiments -gate tpar: one full-detail UCP
#                           run executed serial,
#                           then through the internal/wpar executor
#                           segmented at two worker counts, and through
#                           a capture+restore checkpoint cycle — every
#                           segmented digest byte-identical, all four
#                           boundaries captured and restored, boundary-
#                           warming IPC error < 2%; recorded in
#                           BENCH_tpar.json. Then ucpsim itself runs
#                           -segments 4 at -jobs 1 vs -jobs 8 and the
#                           digest files must cmp-equal)
#  11b. window-parallel gate (experiments -gate wpar: one sampled UCP
#                           run executed chain-serial,
#                           then through the same executor per window at
#                           two worker counts, through
#                           a capture+restore checkpoint cycle, and
#                           adaptively at both worker counts — every
#                           window-parallel digest byte-identical, all 20
#                           window boundaries captured and restored, the
#                           adaptive run stopping at the same window at
#                           every worker count, window-independence IPC
#                           error < 2%, and scaling >= 0.7 x min(cores,
#                           windows) on multi-core hosts (single-core
#                           hosts carry a note); recorded in
#                           BENCH_wpar.json. Then ucpsim itself runs
#                           -sample -segments 4 at -jobs 1 vs -jobs 8
#                           and the digest files must cmp-equal)
#  12. sweep-reuse gate    (experiments -gate sweepreuse: cold vs
#                           arena+checkpoint pool over a
#                           10-config sampled threshold ablation: every
#                           digest byte-identical, exactly one warm
#                           checkpoint captured and N-1 restored, and
#                           wall-clock speedup at or above 3x; recorded
#                           in BENCH_sweepreuse.json)
#  12b. autopilot gate     (experiments -gate autopilot: adaptive
#                           sampling must meet its CI target in
#                           fewer windows than fixed geometry with the
#                           full-detail IPC inside the claimed interval,
#                           and the confidence-pruned 10-config search
#                           must return the exhaustive winner for at
#                           least 2x fewer simulated instructions, twice
#                           identically; recorded in BENCH_autopilot.json,
#                           Pareto table spliced into EXPERIMENTS_RESULTS.md)
#  13. sweepd gate         (experiments -gate sweepd: local pool vs a
#                           loopback sweepd server over
#                           the same ablation: digests byte-identical
#                           over the wire, each distinct job executed
#                           exactly once across two remote passes, the
#                           warm pass fully coalesced — recorded in
#                           BENCH_sweepd.json; then the real sweepd
#                           binary serves ucpsim -server and the remote
#                           digest file must cmp-equal the local one)
#  14. perfbench pins      (the repository benchmark's own tests, then
#                           every workload of python3 _perfbench/run.py
#                           for 3 seconds: each run must report
#                           "correct":true with "failed":0 — every job
#                           matches its _perfbench/pins.json pin)
#  15. BENCH schema        (every BENCH_*.json carries the shared
#                           schema_version/bench/cores envelope)
#
# Steps 10-13 run `experiments -gate <id>` with the gate ids above; each
# writes BENCH_<id>.json, also when a bound fails.
#
# Any failure aborts immediately with a nonzero exit.
set -eu

cd "$(dirname "$0")"

KNOWN_GATES="fmt vet build lint lint-determinism test fuzz runq hotpath hotpath-bench sampling tpar wpar sweepreuse autopilot sweepd perfbench schema"

FAST=0
ONLY=""
while [ $# -gt 0 ]; do
	case "$1" in
	-fast) FAST=1 ;;
	-only)
		shift
		[ $# -gt 0 ] || { echo "check.sh: -only requires a gate id (one of: $KNOWN_GATES)" >&2; exit 2; }
		ONLY="$1"
		case " $KNOWN_GATES " in
		*" $ONLY "*) ;;
		*) echo "check.sh: unknown gate \"$ONLY\" (one of: $KNOWN_GATES)" >&2; exit 2 ;;
		esac
		;;
	*) echo "check.sh: unknown argument $1 (usage: ./check.sh [-fast] [-only <gate>])" >&2; exit 2 ;;
	esac
	shift
done

# want reports whether the named gate should run under -only filtering.
want() { [ -z "$ONLY" ] || [ "$ONLY" = "$1" ]; }

now_ms() { echo $(( $(date +%s%N) / 1000000 )); }

# step prints the previous gate's wall-clock time, records it for the
# summary table, then opens the next gate.
STEP_NAME=""
STEP_T0=0
TIMINGS=""
step() {
	_now=$(now_ms)
	if [ -n "$STEP_NAME" ]; then
		_ms=$((_now - STEP_T0))
		printf '   [%s: %sms]\n' "$STEP_NAME" "$_ms"
		TIMINGS="${TIMINGS}${STEP_NAME}|${_ms}
"
	fi
	STEP_NAME="$*"
	STEP_T0=$_now
	printf '\n== %s ==\n' "$*"
}

RUNQ_TMP=$(mktemp -d)
SWEEPD_PID=""
trap '[ -n "$SWEEPD_PID" ] && kill "$SWEEPD_PID" 2>/dev/null; rm -rf "$RUNQ_TMP"' EXIT

# Tool binaries are built unconditionally (the Go build cache makes
# repeats cheap) so any -only gate is self-contained.
step "tool build"
go build -o "$RUNQ_TMP/ucplint" ./cmd/ucplint
go build -o "$RUNQ_TMP/experiments" ./cmd/experiments
go build -o "$RUNQ_TMP/ucpsim" ./cmd/ucpsim
CORES=$("$RUNQ_TMP/experiments" -numcpu)
SERIAL_MS=0

if want fmt; then
step "gofmt"
UNFMT=$(gofmt -l .)
if [ -n "$UNFMT" ]; then
	echo "unformatted files:" >&2
	echo "$UNFMT" >&2
	exit 1
fi
fi

if want vet; then
step "go vet"
go vet ./...
fi

if want build; then
step "go build"
go build ./...
fi

if want lint; then
step "ucplint"
# The lint gate covers the whole module (./... includes cmd/) and runs
# in JSON mode against the committed baseline. Exit codes are stable:
# 0 clean, 1 findings, 2 load error — run the built binary, not
# `go run`, which collapses any nonzero child status to 1.
if "$RUNQ_TMP/ucplint" -json -baseline .ucplint-baseline.json ./... > "$RUNQ_TMP/lint.json"; then
	echo "ucplint: clean (no findings outside .ucplint-baseline.json)"
else
	rc=$?
	if [ "$rc" -eq 1 ]; then
		cat "$RUNQ_TMP/lint.json" >&2
		N=$(grep -c '"rule":' "$RUNQ_TMP/lint.json" || true)
		echo "ucplint: $N finding(s) outside the baseline" >&2
	else
		echo "ucplint: load error (exit $rc)" >&2
	fi
	exit 1
fi
fi

if want lint-determinism; then
step "ucplint -determinism"
"$RUNQ_TMP/ucplint" -determinism -determinism-insts 60000
fi

if want test; then
step "go test -race"
go test -race ./...
fi

# `go test -fuzz` accepts a single target at a time, so smoke each one.
# FuzzDecodeSubmit's seeds are ~3 KB submit bodies; minimizing each new
# interesting input at the default 60 s budget would stall the 5 s
# smoke, so its minimization is capped at 50 executions.
if want fuzz; then
step "fuzz smoke (internal/trace, internal/sim, internal/sweepd)"
if [ "$FAST" -eq 0 ]; then
	go test -fuzz=FuzzReadAny -fuzztime=5s -run='^$' ./internal/trace
	go test -fuzz=FuzzValidate -fuzztime=5s -run='^$' ./internal/trace
	go test -fuzz=FuzzRestoreWarm -fuzztime=5s -run='^$' ./internal/sim
	go test -fuzz=FuzzDecodeSubmit -fuzztime=5s -fuzzminimizetime=50x -run='^$' ./internal/sweepd
else
	echo "skipped (-fast)"
fi
fi

if want runq; then
step "runq parallel determinism"
# The report must be byte-identical whether runs execute serially, on 8
# workers, or replay from a warm on-disk cache. Timings go to
# BENCH_runq.json as a record; cmp is the only gate.
T0=$(now_ms)
"$RUNQ_TMP/experiments" -all -quick -warmup 60000 -measure 60000 \
	-jobs 1 -progress=false -o "$RUNQ_TMP/serial.md"
T1=$(now_ms)
"$RUNQ_TMP/experiments" -all -quick -warmup 60000 -measure 60000 \
	-jobs 8 -progress=false -cache-dir "$RUNQ_TMP/cache" -o "$RUNQ_TMP/parallel.md"
T2=$(now_ms)
"$RUNQ_TMP/experiments" -all -quick -warmup 60000 -measure 60000 \
	-jobs 8 -progress=false -cache-dir "$RUNQ_TMP/cache" -o "$RUNQ_TMP/warm.md"
T3=$(now_ms)

cmp "$RUNQ_TMP/serial.md" "$RUNQ_TMP/parallel.md" || {
	echo "runq: -jobs 8 report differs from -jobs 1" >&2; exit 1; }
cmp "$RUNQ_TMP/serial.md" "$RUNQ_TMP/warm.md" || {
	echo "runq: cache-warm report differs from cold" >&2; exit 1; }

SERIAL_MS=$((T1 - T0)); PARALLEL_MS=$((T2 - T1)); WARM_MS=$((T3 - T2))
# Cores come from the Go runtime — GOMAXPROCS, what the worker pool
# actually schedules on, which a container CPU quota can pin below
# nproc. On a single-core box -jobs 8 time-slices one CPU, so no
# speedup is expected; the record says so in a note instead of
# presenting the ratio as a regression.
awk -v s="$SERIAL_MS" -v p="$PARALLEL_MS" -v w="$WARM_MS" -v j="$CORES" 'BEGIN {
	printf "{\n"
	printf "  \"schema_version\": 1,\n"
	printf "  \"bench\": \"runq quick sweep (-all -quick, 60k+60k insts)\",\n"
	printf "  \"cores\": %d,\n", j
	printf "  \"serial_ms\": %d,\n", s
	printf "  \"parallel8_ms\": %d,\n", p
	printf "  \"warm_cache_ms\": %d,\n", w
	printf "  \"parallel_speedup\": %.2f,\n", (p > 0 ? s / p : 0)
	if (j < 2) {
		printf "  \"note\": \"single-core host (GOMAXPROCS=%d): parallel_speedup is time-slicing, no speedup expected\",\n", j
	}
	printf "  \"warm_fraction_of_cold\": %.3f\n", (s > 0 ? w / s : 0)
	printf "}\n"
}' > BENCH_runq.json
echo "runq: serial=${SERIAL_MS}ms parallel8=${PARALLEL_MS}ms warm=${WARM_MS}ms cores=${CORES} (BENCH_runq.json)"
fi

if want hotpath; then
step "hotpath determinism digest"
# The hard gate of the hot-path work: the quick-sweep determinism
# digests (baseline + UCP, 60k+60k insts) must be byte-identical to the
# pre-optimization golden. Any optimization that changes a simulated
# outcome — one cycle, one counter — fails here.
{
	"$RUNQ_TMP/ucpsim" -trace quick -digest -warmup 60000 -measure 60000
	"$RUNQ_TMP/ucpsim" -trace quick -ucp -digest -warmup 60000 -measure 60000
} > "$RUNQ_TMP/digest.txt"
cmp "$RUNQ_TMP/digest.txt" testdata/hotpath_digest.golden || {
	echo "hotpath: determinism digest differs from testdata/hotpath_digest.golden" >&2
	echo "hotpath: an optimization changed simulated outcomes (or the model changed" >&2
	echo "hotpath: intentionally — then regenerate the golden and say so in the PR)" >&2
	exit 1
}
echo "hotpath: digests match golden"
fi

if want hotpath-bench; then
step "hotpath benchmark (BenchmarkSimQuick)"
# One iteration is enough for a smoke + a steady-state allocs/inst
# reading (the sim loop is allocation-free; construction amortizes).
# Timings are recorded, never gated.
go test -run '^$' -bench '^BenchmarkSimQuick$' -benchtime=1x . | tee "$RUNQ_TMP/bench.txt"
grep -q '^BenchmarkSimQuick' "$RUNQ_TMP/bench.txt" || {
	echo "hotpath: BenchmarkSimQuick produced no result line" >&2; exit 1; }
# seed_serial_ms is the quick-sweep serial wall clock of the
# pre-optimization tree (commit 4e3b42d), measured interleaved with the
# optimized build on the same machine to cancel thermal drift.
# sweep_serial_ms is 0 when the runq gate did not run this invocation.
awk -v s="$SERIAL_MS" -v j="$CORES" -v seed=28645 '
	/^BenchmarkSimQuick/ {
		for (i = 2; i <= NF; i++) {
			if ($i == "insts/s")     ips = $(i-1)
			if ($i == "allocs/inst") api = $(i-1)
		}
	}
	END {
		printf "{\n"
		printf "  \"schema_version\": 1,\n"
		printf "  \"bench\": \"BenchmarkSimQuick (quick set, baseline+UCP, 30k+30k insts each)\",\n"
		printf "  \"cores\": %d,\n", j
		printf "  \"simulated_insts_per_sec\": %.0f,\n", ips
		printf "  \"allocs_per_inst\": %.5f,\n", api
		printf "  \"sweep_serial_ms\": %d,\n", s
		printf "  \"seed_serial_ms\": %d,\n", seed
		printf "  \"speedup_vs_seed\": %.2f\n", (s > 0 ? seed / s : 0)
		printf "}\n"
	}' "$RUNQ_TMP/bench.txt" > BENCH_hotpath.json
echo "hotpath: $(tr -d '\n' < BENCH_hotpath.json | tr -s ' ')"
fi

if want sampling; then
step "sampling gate"
# Paired full-vs-sampled sweep (no-uop / baseline / UCP on crypto01,
# 25M measured insts) in one process so the wall-clock ratio is
# thermally comparable. Gated: per-point IPC error < 2%, aggregate
# speedup >= 10x, sampled runs digest-identical across two passes.
"$RUNQ_TMP/experiments" -gate sampling
fi

if want tpar; then
step "time-parallel gate"
# One full-detail UCP run on crypto01 executed five ways in one process
# (serial, then segmented through internal/wpar at w1 and wN, checkpoint
# capture, checkpoint restore). Gated: segmented digests byte-identical across worker counts
# and across the capture/restore cycle, 4 boundaries captured + 4
# restored, boundary-warming IPC error < 2%. Scaling is gated only on
# multi-core hosts; single-core runs carry a note in BENCH_tpar.json.
"$RUNQ_TMP/experiments" -gate tpar

# End-to-end half: ucpsim itself, segmented, at two pool worker counts —
# the whole digest file (which includes the per-segment timepar lines)
# must be byte-identical.
"$RUNQ_TMP/ucpsim" -trace srv203 -ucp -digest -warmup 60000 -measure 60000 \
	-segments 4 -jobs 1 > "$RUNQ_TMP/tpar_digest_j1.txt"
"$RUNQ_TMP/ucpsim" -trace srv203 -ucp -digest -warmup 60000 -measure 60000 \
	-segments 4 -jobs 8 > "$RUNQ_TMP/tpar_digest_j8.txt"
cmp "$RUNQ_TMP/tpar_digest_j1.txt" "$RUNQ_TMP/tpar_digest_j8.txt" || {
	echo "tpar: segmented ucpsim digest differs between -jobs 1 and -jobs 8" >&2; exit 1; }
echo "tpar: segmented ucpsim digests byte-identical across worker counts"
fi

if want wpar; then
step "window-parallel gate"
# One sampled UCP run on crypto01 executed seven ways in one process
# (chain-serial, then per window through the same internal/wpar
# executor as the time-parallel gate: w1, wN, checkpoint capture,
# checkpoint restore, adaptive w1, adaptive wN). Gated:
# window-parallel digests byte-identical across worker counts and
# across the capture/restore cycle, all 20 window boundaries captured +
# restored, the adaptive run stopping at the same window at both worker
# counts, window-independence IPC error < 2%, and scaling >= 0.7 x
# min(cores, windows) on multi-core hosts. Single-core runs carry a
# note in BENCH_wpar.json.
"$RUNQ_TMP/experiments" -gate wpar

# End-to-end half: ucpsim itself, sampled + segmented, at two pool
# worker counts — the whole digest file (sampled window lines, adaptive
# provenance, and timepar window lines) must be byte-identical.
"$RUNQ_TMP/ucpsim" -trace srv203 -ucp -digest -warmup 60000 -measure 200000 \
	-sample -sample-period 50000 -sample-window 2000 \
	-segments 4 -jobs 1 > "$RUNQ_TMP/wpar_digest_j1.txt"
"$RUNQ_TMP/ucpsim" -trace srv203 -ucp -digest -warmup 60000 -measure 200000 \
	-sample -sample-period 50000 -sample-window 2000 \
	-segments 4 -jobs 8 > "$RUNQ_TMP/wpar_digest_j8.txt"
cmp "$RUNQ_TMP/wpar_digest_j1.txt" "$RUNQ_TMP/wpar_digest_j8.txt" || {
	echo "wpar: sampled segmented ucpsim digest differs between -jobs 1 and -jobs 8" >&2; exit 1; }
echo "wpar: sampled segmented ucpsim digests byte-identical across worker counts"
fi

if want sweepreuse; then
step "sweep-reuse gate"
if [ "$FAST" -eq 0 ]; then
	# Cold pool (per-job fast-forward) vs a fresh arena+checkpoint pool
	# over one warm-key-sharing sampled sweep, in one process. Gated:
	# digests byte-identical cold vs warm, one checkpoint captured + N-1
	# restored, wall-clock speedup >= 3x.
	"$RUNQ_TMP/experiments" -gate sweepreuse
else
	echo "skipped (-fast)"
fi
fi

if want autopilot; then
step "autopilot gate"
if [ "$FAST" -eq 0 ]; then
	# Part A: an adaptive run (FastSampling + a ±2% CI target) must meet
	# its target in strictly fewer windows than the fixed geometry, with
	# the full-detail reference IPC inside its claimed interval, twice
	# digest-identically. Part B: the confidence-pruned 10-config search
	# must name the same winner as exhaustive enumeration at >=2x fewer
	# simulated instructions, and a repeat search must reproduce winner,
	# rounds, spend, and winning digest. The Pareto table is regenerated
	# in EXPERIMENTS_RESULTS.md between its markers.
	"$RUNQ_TMP/experiments" -gate autopilot
else
	echo "skipped (-fast)"
fi
fi

if want sweepd; then
step "sweepd gate"
if [ "$FAST" -eq 0 ]; then
	# In-process half: local pool vs a loopback sweepd server over the
	# same ablation sweep, plus a second remote pass. Gated: every digest
	# byte-identical over the wire, the server executes each distinct job
	# exactly once, the whole second pass coalesces, and its checkpoint
	# tier captures once + restores N-1 times.
	"$RUNQ_TMP/experiments" -gate sweepd

	# End-to-end half: the real sweepd binary serving a real ucpsim
	# client. The remote digest file must be byte-identical to the local
	# one — same binary, same flags, only -server differs.
	go build -o "$RUNQ_TMP/sweepd" ./cmd/sweepd
	"$RUNQ_TMP/sweepd" -addr 127.0.0.1:0 -quiet 2> "$RUNQ_TMP/sweepd.log" &
	SWEEPD_PID=$!
	ADDR=""
	i=0
	while [ $i -lt 100 ]; do
		ADDR=$(sed -n 's/^sweepd: listening on //p' "$RUNQ_TMP/sweepd.log")
		[ -n "$ADDR" ] && break
		sleep 0.1
		i=$((i + 1))
	done
	[ -n "$ADDR" ] || { echo "sweepd: server did not come up" >&2; exit 1; }
	{
		"$RUNQ_TMP/ucpsim" -trace quick -digest -warmup 60000 -measure 60000
		"$RUNQ_TMP/ucpsim" -trace quick -ucp -digest -warmup 60000 -measure 60000
	} > "$RUNQ_TMP/digest_local.txt"
	{
		"$RUNQ_TMP/ucpsim" -trace quick -digest -warmup 60000 -measure 60000 -server "http://$ADDR"
		"$RUNQ_TMP/ucpsim" -trace quick -ucp -digest -warmup 60000 -measure 60000 -server "http://$ADDR"
	} > "$RUNQ_TMP/digest_remote.txt"
	kill "$SWEEPD_PID" 2>/dev/null || true
	wait "$SWEEPD_PID" 2>/dev/null || true
	SWEEPD_PID=""
	cmp "$RUNQ_TMP/digest_local.txt" "$RUNQ_TMP/digest_remote.txt" || {
		echo "sweepd: remote digests differ from local (wire round-trip is lossy)" >&2; exit 1; }
	echo "sweepd: end-to-end remote digests byte-identical to local"
else
	echo "skipped (-fast)"
fi
fi

if want perfbench; then
step "perfbench pins"
if [ "$FAST" -eq 0 ]; then
	# The repository benchmark (BENCHMARK.json) checks every simulated
	# outcome of every job against _perfbench/pins.json. Its own tests
	# run first, then each workload for a short budget; a run passes only
	# when its result line reports every job correct and none failed.
	# The benchmark builds into .bench_build/ and writes nothing under
	# _perfbench/.
	(cd _perfbench && go test ./...)
	for w in full-compare sampled sweep window-parallel; do
		python3 _perfbench/run.py --workload "$w" --seconds 3 > "$RUNQ_TMP/perfbench_$w.out"
		RESULT=$(tail -n 1 "$RUNQ_TMP/perfbench_$w.out")
		case "$RESULT" in
		*'"correct":true,'*'"failed":0,'*) echo "perfbench $w: $RESULT" ;;
		*) echo "perfbench: $w is not correct with 0 failed jobs: $RESULT" >&2; exit 1 ;;
		esac
	done
else
	echo "skipped (-fast)"
fi
fi

if want schema; then
step "BENCH schema"
# Every benchmark record shares the same envelope so downstream tooling
# can discover and parse them uniformly. In -fast mode the sweep-reuse,
# autopilot, and sweepd records may be stale or absent; only gate them
# on full runs. Under -only, gate whichever records exist on disk.
SCHEMA_FILES="BENCH_runq.json BENCH_hotpath.json BENCH_sampling.json BENCH_tpar.json BENCH_wpar.json"
if [ "$FAST" -eq 0 ]; then
	SCHEMA_FILES="$SCHEMA_FILES BENCH_sweepreuse.json BENCH_autopilot.json BENCH_sweepd.json"
fi
if [ -n "$ONLY" ]; then
	PRESENT=""
	for f in $SCHEMA_FILES; do
		[ -f "$f" ] && PRESENT="$PRESENT $f"
	done
	SCHEMA_FILES="$PRESENT"
fi
for f in $SCHEMA_FILES; do
	[ -f "$f" ] || { echo "BENCH schema: $f missing" >&2; exit 1; }
	grep -q '"schema_version": 1' "$f" || {
		echo "BENCH schema: $f lacks \"schema_version\": 1" >&2; exit 1; }
	grep -q '"bench": "' "$f" || {
		echo "BENCH schema: $f lacks a \"bench\" description" >&2; exit 1; }
	grep -q '"cores": ' "$f" || {
		echo "BENCH schema: $f lacks a \"cores\" stamp" >&2; exit 1; }
done
echo "BENCH schema: records conform ($SCHEMA_FILES)"
fi

step "done"
printf 'gate timing summary:\n'
printf '%s' "$TIMINGS" | awk -F'|' '{
	printf "  %-36s %8d ms\n", $1, $2
	total += $2
}
END { printf "  %-36s %8d ms\n", "total", total }'
printf 'check.sh: all gates passed\n'
