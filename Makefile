# Tier-1 verification and the common dev loops in one place.
#   make            = build + test (the tier-1 gate)
#   make race       = full suite under the race detector
#   make bench      = every benchmark with allocation counts
GO ?= go

.PHONY: all build test race governor-smoke scenario-smoke chaos-smoke fleet-smoke forward-smoke churn-smoke figures-smoke fuzz-smoke fuzz-batch-smoke schema-check vet vuln bench bench-gate bench-test bench-e2e loc loc-diff digest-diff alloc-diff pair-diff bench-record bench-trend

all: build test

# The benchmark (bench/) is its own module over the internal packages, so
# `go build ./...` never compiles it; build it too, so an internal API change
# that breaks it fails here.
build:
	$(GO) build ./...
	$(GO) build -C bench ./...

# Tier-1 tests plus a race-detector pass over every package a run drives
# concurrently: the sweep pool and its consumers, the set-up chain it fans
# out (rib's K+1 table generations, core's K count passes and compiles,
# netsim's K oracles), the instrumentation layer, the image-ownership tests
# (pristine images shared by readers while clones are written, each clone
# copying a stage at its first write to it — pipeline's slab/clone tests,
# ctrl's coherence property test), the reference LPM,
# whose range index the first of concurrent lookups publishes, and
# everything the slice runner composes — fault injection, hitless updates,
# the governor and the power model under it, the scenario engine, the
# energy meter, fleet placement and the traffic source.
test: build
	$(GO) test ./...
	$(GO) test -race ./internal/experiments/... ./internal/sweep/... ./internal/obs/... ./internal/netsim/... ./internal/ctrl/... ./internal/pipeline/... ./internal/ip/... \
		./internal/core/... ./internal/rib/... ./internal/faults/... ./internal/update/... ./internal/governor/... ./internal/power/... ./internal/scenario/... ./internal/energy/... ./internal/fleet/... ./internal/traffic/...

race:
	$(GO) test -race ./...

# One recipe for every smoke: the spec runs at -j1 and -j8 with flight
# tracing, the slice time series and the event log all on, and the report
# and all three dumps are byte-compared. Dumps land in the target's own
# directory (CI uploads it as an artifact). lookupsim exits nonzero on an
# oracle mismatch, a misforwarding audit probe or outstanding work, so every
# smoke also gates those. The report has a section for every stressor the
# spec runs, so there is nothing to ask for beyond the spec.
#   $(call smoke,DIR,ROUTER FLAGS,NAME OF THE SPEC VARIABLE)
smoke-run = $(GO) run ./cmd/lookupsim $(2) -j $(4) -scenario $($(3)) \
	-trace-sample 0.02 -trace-out $(1)/traces$(5).jsonl \
	-timeseries-out $(1)/timeseries$(5).csv -events-out $(1)/events$(5).jsonl \
	> $(1)/report$(5).txt
define smoke
	mkdir -p $(1)
	$(call smoke-run,$(1),$(2),$(3),1,)
	$(call smoke-run,$(1),$(2),$(3),8,-j8)
	cmp $(1)/report.txt $(1)/report-j8.txt
	cmp $(1)/traces.jsonl $(1)/traces-j8.jsonl
	cmp $(1)/timeseries.csv $(1)/timeseries-j8.csv
	cmp $(1)/events.jsonl $(1)/events-j8.jsonl
endef

# Governor smoke: a VS router under a power cap set below its steady-state
# draw (4.9 W at load 0.9; cap 4.6 W), lifted mid-run by the spec's
# power-cap-lift= key. The greps assert the cap is in the report's stressor
# title and that the closed loop actually escalated and then recovered:
# governor transitions in the event log, convergence and a full-speed final
# rung in the report. The second spec keeps a cap just above the 4.5 W
# static floor for the whole run: once the traffic ends the governor must
# step back up by itself and drain the queues it throttled.
GOVERNOR_SPEC = load=const:0.9,cycles=32768,power-cap=4.6,power-cap-lift=16384
GOVERNOR_HOLD_SPEC = load=const:0.9,cycles=32768,power-cap=4.65
governor-smoke:
	$(call smoke,governor-smoke,-scheme VS -k 3,GOVERNOR_SPEC)
	grep -q 'load + power-cap' governor-smoke/report.txt
	grep -q governor_escalate governor-smoke/events.jsonl
	grep -q governor_deescalate governor-smoke/events.jsonl
	grep -q 'Converged under cap' governor-smoke/report.txt
	grep -q '0 (full)' governor-smoke/report.txt
	grep -q 'Completed.*true' governor-smoke/report.txt
	$(call smoke,governor-smoke/hold,-scheme VS -k 3,GOVERNOR_HOLD_SPEC)
	grep -q governor_deescalate governor-smoke/hold/events.jsonl
	grep -q 'Completed.*true' governor-smoke/hold/report.txt

# Composed scenario smoke: surge load, SEU faults, an engine kill, update
# churn and a power cap in ONE run, grepped for the lifecycle the
# composition must produce — and, being the run with every kind of flight in
# it, for the telemetry a run must leave behind (a delivered trace, a
# blackholed one that names its packet's address, and the kill's hole: the
# killed engine's network is down in the slice the kill at cycle 3000 lands
# in and in the next, whose boundary the heartbeat finds it at).
SCENARIO_SPEC = load=surge:0.3:0.9,faults=seu:2e-9,kill=1@3000,churn=6x32,power-cap=38,cycles=16384,queue=32,seed=11
scenario-smoke:
	$(call smoke,scenario-smoke,-scheme VS -k 3,SCENARIO_SPEC)
	grep -q 'load + faults + churn + power-cap' scenario-smoke/report.txt
	grep -q 'Recovered.*true' scenario-smoke/report.txt
	grep -q 'Completed.*true' scenario-smoke/report.txt
	grep -q engine_kill scenario-smoke/events.jsonl
	grep -q scrub_done scenario-smoke/events.jsonl
	grep -q update_commit scenario-smoke/events.jsonl
	grep -q '"outcome":"forward"' scenario-smoke/traces.jsonl
	grep -q '"outcome":"drop-down"' scenario-smoke/traces.jsonl
	! grep '"outcome":"drop-down"' scenario-smoke/traces.jsonl | grep -q '"addr":""'
	grep -q '^2048,.*,0,[01]$$' scenario-smoke/timeseries.csv
	grep -q '^3072,.*,0,[01]$$' scenario-smoke/timeseries.csv

# Chaos smoke: the crash-consistency flagship — surge load, SEU scrubs,
# churn, a power cap, and every control-plane fault class (crash-before-
# commit, reload stall, torn write, watchdog false positive) in ONE run —
# grepped for the recovery lifecycle (injected faults, journaled rollback AND
# replay, a clean invariant audit) and for the energy attribution tables
# every report carries and the energy columns of the series, which are part of
# the determinism contract like everything else the recipe compares.
CHAOS_SPEC = load=surge:0.3:0.9,faults=seu:2e-8,churn=8x24,power-cap=38,chaos=crash:3+stall:1+torn:1+falsepos:1,cycles=16384,queue=32,seed=11
chaos-smoke:
	$(call smoke,chaos-smoke,-scheme VS -k 3,CHAOS_SPEC)
	grep -q 'load + faults + chaos + churn + power-cap' chaos-smoke/report.txt
	grep -q 'Completed.*true' chaos-smoke/report.txt
	grep -q chaos_inject chaos-smoke/events.jsonl
	grep -q crash_before_commit chaos-smoke/events.jsonl
	grep -q recovery_rollback chaos-smoke/events.jsonl
	grep -q recovery_replay chaos-smoke/events.jsonl
	grep -q invariant_audit chaos-smoke/events.jsonl
	grep -q 'Energy attribution' chaos-smoke/report.txt
	grep -q 'Per-VNID dynamic energy' chaos-smoke/report.txt
	grep -q 'Energy per forwarded bit' chaos-smoke/report.txt
	sed -n 2p chaos-smoke/timeseries.csv | grep -q 'dyn_j,static_j,j_per_bit'

# Fleet smoke: the N+1-spare failover flagship — eight networks packed over
# two devices plus a dark spare, BOTH actives crashed in sequence (first
# crash's victims live-migrate to the survivor, then the survivor dies too
# and the spare powers up to take the whole fleet), two flaky reconfigurers
# (retry/backoff ladder) and a brownout window in ONE run — grepped for the
# failover lifecycle: the crashes, the spare power-up and its readiness, a
# failed-and-retried install, the journaled landing and its invariant audit,
# ending with every network recovered (no vn_degraded). Some device is
# powered in every slice, so no series row may read power_w 0: a powering-up
# spare leaks before its first install.
#
# Every run is a placement and a single device is the fleet of one, so the
# target also runs the N=1 pair: FLEET1_SPEC and the same spec with fleet=1
# must log the same events, report the same per-network packet counts and
# write the same series and traces, byte for byte — at -j1 and -j8 alike.
FLEET_SPEC = load=const:0.4,fleet=2:spare=1,chaos=devcrash:2+flaky:2+brownout:1,cycles=65536,queue=32,seed=2
FLEET1_SPEC = load=surge:0.3:0.95,cycles=8192,queue=8,seed=3
FLEET1_FLEET_SPEC = $(FLEET1_SPEC),fleet=1
fleet-smoke:
	$(call smoke,fleet-smoke,-scheme VS -k 8,FLEET_SPEC)
	$(call smoke,fleet-smoke/one,-scheme VS -k 4,FLEET1_SPEC)
	$(call smoke,fleet-smoke/fleet1,-scheme VS -k 4,FLEET1_FLEET_SPEC)
	cmp fleet-smoke/one/events.jsonl fleet-smoke/fleet1/events.jsonl
	cmp fleet-smoke/one/timeseries.csv fleet-smoke/fleet1/timeseries.csv
	cmp fleet-smoke/one/traces.jsonl fleet-smoke/fleet1/traces.jsonl
	for d in one fleet1; do \
		grep 'offered/delivered/dropped' fleet-smoke/$$d/report.txt | sed 's/ *$$//' > fleet-smoke/$$d/packets.txt || exit 1; \
	done
	cmp fleet-smoke/one/packets.txt fleet-smoke/fleet1/packets.txt
	grep -q 'load + fleet + chaos' fleet-smoke/report.txt
	grep -q 'Completed.*true' fleet-smoke/report.txt
	grep -q device_crash fleet-smoke/events.jsonl
	grep -q spare_powerup fleet-smoke/events.jsonl
	grep -q spare_ready fleet-smoke/events.jsonl
	awk -F, 'NR > 2 && $$2 == 0 { print "power_w 0 at cycle " $$1; bad = 1 } END { exit bad }' fleet-smoke/timeseries.csv
	grep -q migration_fail fleet-smoke/events.jsonl
	grep -q migration_commit fleet-smoke/events.jsonl
	grep -q invariant_audit fleet-smoke/events.jsonl
	! grep -q vn_degraded fleet-smoke/events.jsonl

# Forward smoke: the closed loops over the paper's VM K=8 shape — Forward
# (bare lookups, flight tracing on) and ForwardFrames (parse → lookup → edit)
# — at -j1 and -j8, report and traces byte-compared. The merged engine is split
# into one shard per worker and every shard checks, meters and traces the
# chunks it sweeps, so a fold that depends on the worker count shows up here;
# the 0.02 sample overflows the default 4096-trace ring, so the traces kept
# must not depend on it either.
FORWARD_FLAGS = -scheme VM -k 8 -prefixes 3725 -packets 250000 -trace-sample 0.02
forward-smoke:
	mkdir -p forward-smoke
	$(GO) run ./cmd/lookupsim $(FORWARD_FLAGS) -j 1 -trace-out forward-smoke/traces.jsonl > forward-smoke/report.txt
	$(GO) run ./cmd/lookupsim $(FORWARD_FLAGS) -j 8 -trace-out forward-smoke/traces-j8.jsonl > forward-smoke/report-j8.txt
	$(GO) run ./cmd/lookupsim $(FORWARD_FLAGS) -frames -j 1 -trace-out forward-smoke/frames-traces.jsonl > forward-smoke/frames.txt
	$(GO) run ./cmd/lookupsim $(FORWARD_FLAGS) -frames -j 8 -trace-out forward-smoke/frames-traces-j8.jsonl > forward-smoke/frames-j8.txt
	cmp forward-smoke/report.txt forward-smoke/report-j8.txt
	cmp forward-smoke/traces.jsonl forward-smoke/traces-j8.jsonl
	cmp forward-smoke/frames.txt forward-smoke/frames-j8.txt
	cmp forward-smoke/frames-traces.jsonl forward-smoke/frames-traces-j8.jsonl
	grep -q '"outcome":"forward"' forward-smoke/traces.jsonl
	grep -q '"outcome":"forward"' forward-smoke/frames-traces.jsonl
	grep -q 'Mismatches vs reference LPM *0 ' forward-smoke/report.txt
	grep -q 'Mismatches vs reference LPM *0 ' forward-smoke/frames.txt
	grep -q 'Energy per forwarded bit' forward-smoke/report.txt

# Churn smoke: ROADMAP item 3's baseline — one VS engine over 100 000
# prefixes taking eight 24-op churn batches at half load, where a batch's
# write cost follows the size of the table, not of the batch. The greps pin
# the run completing and that cost, item 3's "before" row: a change that
# moves it (stable placement) must re-pin it on purpose.
CHURN_SPEC = load=const:0.5,churn=8x24,seed=11
churn-smoke:
	$(call smoke,churn-smoke,-scheme VS -k 1 -prefixes 100000,CHURN_SPEC)
	grep -q 'Completed.*true' churn-smoke/report.txt
	grep -q 'Stage writes / write bubbles *1381427 / 359506' churn-smoke/report.txt

# Figures smoke: every table and figure cmd/figures prints, as CSV, at -j1
# and -j8, byte-compared like the lookupsim smokes above — a row that stops
# being deterministic (or stops building) shows up here.
figures-smoke:
	mkdir -p figures-smoke
	$(GO) run ./cmd/figures -exp all -csv -j 1 > figures-smoke/all.csv
	$(GO) run ./cmd/figures -exp all -csv -j 8 > figures-smoke/all-j8.csv
	cmp figures-smoke/all.csv figures-smoke/all-j8.csv

# Short deterministic fuzz passes over the operator-facing spec parser (the
# full corpus run is `go test -fuzz=FuzzParse ./internal/scenario`) and over
# the reference LPM oracle against its exhaustive scan, with NewTable's
# one-sort load against Add (`go test -fuzz=FuzzTableLookup ./internal/ip`).
fuzz-smoke:
	$(GO) test ./internal/scenario -run='^$$' -fuzz=FuzzParse -fuzztime=10s
	$(GO) test ./internal/ip -run='^$$' -fuzz=FuzzTableLookup -fuzztime=10s

# Short fuzz passes over the production engine against its oracles: the
# batched/scalar/trie lookup equivalence, the streamed engine against the
# cycle-stepped Sim under random inject / bubble / update / upset / Stats
# interleavings, and the route compile against the breadth-first one on
# decoded route lists (unsorted, a prefix perhaps twice, up to five tables),
# stage-granular image ownership (random Clone / FlipBit / setEntry / Flatten
# over three images sharing stages, each held to a deep-copied reference and
# the pristine sources to what they were), and the batched oracle every
# verify loop calls, LookupAll, against the scan of the same routes (the full
# runs are `go test -fuzz=FuzzBatchedLookup`, `-fuzz=FuzzStreamVsSim`,
# `-fuzz=FuzzCompileMatchesBreadthFirst` and `-fuzz=FuzzCloneWrites` in
# ./internal/pipeline and `-fuzz=FuzzLookupAll` in ./internal/ip).
fuzz-batch-smoke:
	$(GO) test ./internal/pipeline -run='^$$' -fuzz=FuzzBatchedLookup -fuzztime=10s
	$(GO) test ./internal/pipeline -run='^$$' -fuzz=FuzzStreamVsSim -fuzztime=10s
	$(GO) test ./internal/pipeline -run='^$$' -fuzz=FuzzCompileMatchesBreadthFirst -fuzztime=10s
	$(GO) test ./internal/pipeline -run='^$$' -fuzz=FuzzCloneWrites -fuzztime=10s
	$(GO) test ./internal/ip -run='^$$' -fuzz=FuzzLookupAll -fuzztime=10s

# bench/ is its own module, so ./... never reaches it: vet it too.
# Schema check: the keys and columns of the report JSON, series CSV, events
# and traces JSONL, read off the equivalence runs, must be the checked-in
# manifest's (internal/netsim/testdata/schema.manifest), listed under the
# schema version every file states (obs.SchemaVersion). A key that changes
# without a version bump fails; after a bump, regenerate the manifest with
# go test ./internal/netsim -run TestSchemaManifest -update-schema.
schema-check:
	$(GO) test ./internal/netsim -run '^TestSchemaManifest$$' -count=1

vet:
	$(GO) vet ./...
	$(GO) vet -C bench ./...

# Known-vulnerability scan. govulncheck is not vendored; skip gracefully
# where it is not installed (CI installs it in the lint job).
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

bench:
	$(GO) test -bench=. -benchmem ./...

# The gated benchmarks: the batched headline lookup bench, its scalar
# oracle reference, the streamed (parity on; inject and drain on the batched
# engine, a Result per cycle on the scalar one) lookup path the slice runner
# uses, the slice loop itself (load_small's shape through RunScenario, per
# slice), the reference LPM every simulated lookup is checked against (one
# lookup at a time, a chunk at a time as the verify loops call it, and build),
# the image compiler, Image.Clone and Flatten (a re-derivation,
# jump table included), what the control plane does to prepare one
# hitless churn batch (apply, compile, diff, clone), and set-up:
# core.Build of the paper's VM router, and core.Build plus netsim.New over
# one 300 000-prefix table; and the three full-RIB fill rows: the churn
# table's 100 k row (one VS engine, eight 24-op batches at half load, one run
# an op), System.Forward of 2^18 packets over that 300 000-prefix table, and
# load=const:0.9 for 65 536 cycles over eight 30 000-prefix networks, Zipf.
#
# bench-gate measures them at BASE (default the parent commit, extracted like
# loc-diff's) and in the working tree on one host: each side's test binary is
# built once (-trimpath, so the same source gives the same binary wherever it
# is extracted), then ten pairs of one rep a side run from each side's root,
# alternating which side goes first. benchgate fails a benchmark whose
# allocs/op minimum rose, or that is slower in 9 of the 10 pairs by more than
# BASE's interquartile range, or that BASE measured and the tree does not.
# bench-gate-base.out, bench-gate-now.out and the report bench-gate.out are
# kept as CI artifacts.
GATE_BENCH = ^(BenchmarkPipelineLookup|BenchmarkPipelineLookupScalar|BenchmarkLookupStreamed|BenchmarkServeSlice|BenchmarkReferenceLookup|BenchmarkReferenceLookupAll|BenchmarkReferenceBuild|BenchmarkImageCompile|BenchmarkImageClone|BenchmarkImageFlatten|BenchmarkHitlessPrepare|BenchmarkBuildMerged|BenchmarkSetupFill|BenchmarkChurnFill|BenchmarkForwardFill|BenchmarkLoadFill)$$
bench-gate: build
	@$(BASE_TREE) && \
	(cd "$$tmp" && $(GO) test -trimpath -c -o "$$tmp/base.test" .) && \
	$(GO) test -trimpath -c -o "$$tmp/now.test" . || { echo "bench-gate: test binary build failed" >&2; exit 1; }; \
	run() { (cd "$$1" && "$$2" -test.run='^$$' -test.bench='$(GATE_BENCH)' -test.benchmem -test.count=1 -test.timeout=10m); }; \
	: > bench-gate-base.out; : > bench-gate-now.out; \
	for i in 1 2 3 4 5 6 7 8 9 10; do \
		if [ $$((i % 2)) -eq 1 ]; then run "$$tmp" "$$tmp/base.test" >> bench-gate-base.out && run . "$$tmp/now.test" >> bench-gate-now.out; \
		else run . "$$tmp/now.test" >> bench-gate-now.out && run "$$tmp" "$$tmp/base.test" >> bench-gate-base.out; fi || exit 1; \
	done; \
	$(GO) run ./cmd/benchgate bench-gate-base.out bench-gate-now.out > bench-gate.out; s=$$?; cat bench-gate.out; exit $$s

# The repository benchmark (bench/, BENCHMARK.json) is its own module, so
# `go test ./...` never compiles it. bench-test runs its suite: every
# workload at 1/32 length with all checks on (~10 s). bench-e2e is the full
# benchmark: four workloads, 30 s each, end-to-end metrics.
bench-test:
	$(GO) test -C bench .

bench-e2e:
	bash bench/run.sh

# Non-test Go lines per package (wc -l over the files `go list` names as
# GoFiles, so _test.go files and bench/, its own module, are out): the table
# a change that claims to simplify is held to. LOC_COUNT prints one
# "<lines> <package>" line per package of the module in the current directory.
LOC_COUNT = $(GO) list -f '{{.Dir}} {{.ImportPath}}{{range .GoFiles}} {{.}}{{end}}' ./... | \
	while read dir pkg files; do \
		n=0; for f in $$files; do n=$$((n + $$(wc -l < $$dir/$$f))); done; \
		echo "$$n $$pkg"; \
	done
loc:
	@$(LOC_COUNT) | sort -k2 | awk '{ t += $$1; printf "%6d  %s\n", $$1, $$2 } END { printf "%6d  total\n", t }'

# The same count at BASE (a git revision, default the parent commit) beside
# the working tree's: package, base, now, delta, and a total row — the
# "parent -> now" table a simplifying change reports. BASE's tree is
# extracted with git archive into a temporary directory and counted there
# (the module has no dependencies, so go list needs no network).
BASE ?= HEAD~1
# BASE's tree, extracted with git archive into the temporary directory $tmp,
# removed when the recipe's shell exits. Every recipe that compares BASE with
# the working tree starts with it.
BASE_TREE = tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; git archive $(BASE) | tar -x -C "$$tmp"
loc-diff:
	@$(BASE_TREE) && \
	(cd "$$tmp" && $(LOC_COUNT)) > "$$tmp/base.loc" && \
	$(LOC_COUNT) > "$$tmp/now.loc" && \
	awk 'FNR == NR { b[$$2] = $$1; next } { n[$$2] = $$1 } \
		END { for (p in b) if (!(p in n)) n[p] = 0; for (p in n) print p, b[p] + 0, n[p] }' \
		"$$tmp/base.loc" "$$tmp/now.loc" | sort | \
	awk 'BEGIN { printf "%-42s %6s %6s %6s\n", "package", "base", "now", "delta" } \
		{ printf "%-42s %6d %6d %+6d\n", $$1, $$2, $$3, $$3 - $$2; tb += $$2; tn += $$3 } \
		END { printf "%-42s %6d %6d %+6d\n", "total", tb, tn, tn - tb }'

# The forty bench digests — four workloads, seeds 1-10, one untimed rep each
# (--seconds 0) — at BASE (default the parent commit, extracted with git
# archive like loc-diff's) and in the working tree: one "workload seed base
# now" row per run, then a cmp of the two lists, so any moved digest fails
# the target. A change meant to leave simulated results alone must pass it.
DIGEST_WORKLOADS = forward_paper load_small chaos_vs fleet_failover
DIGESTS = for w in $(DIGEST_WORKLOADS); do for s in 1 2 3 4 5 6 7 8 9 10; do \
		d=$$(bash bench/run.sh --workload $$w --seed $$s --seconds 0 | awk '$$1 == "digest" { print $$2 }'); \
		[ -n "$$d" ] || { echo "digest-diff: no digest for $$w seed $$s" >&2; exit 1; }; \
		echo "$$w $$s $$d"; \
	done; done
digest-diff:
	@$(BASE_TREE) && \
	(cd "$$tmp" && $(DIGESTS)) > "$$tmp/base.digests" && \
	$(DIGESTS) > "$$tmp/now.digests" && \
	paste -d ' ' "$$tmp/base.digests" "$$tmp/now.digests" | \
		awk 'BEGIN { print "workload seed base now" } { print $$1, $$2, $$3, $$6 }' && \
	cmp "$$tmp/base.digests" "$$tmp/now.digests"

# Bytes allocated per rep, the one bench cost that does not depend on the
# host: alloc_mb of the four workloads at seed 1 (--seconds 0), read from the
# result line, at BASE (extracted like digest-diff's) and in the working tree.
# Prints "workload base now delta%" and fails if any workload rises by more
# than 2 % (repeated runs of one seed read within ±0.3 %).
ALLOCS = for w in $(DIGEST_WORKLOADS); do \
		a=$$(bash bench/run.sh --workload $$w --seed 1 --seconds 0 | awk '$$1 == "alloc_mb" { print $$2 }'); \
		[ -n "$$a" ] || { echo "alloc-diff: no alloc_mb for $$w" >&2; exit 1; }; \
		echo "$$w $$a"; \
	done
alloc-diff:
	@$(BASE_TREE) && \
	(cd "$$tmp" && $(ALLOCS)) > "$$tmp/base.allocs" && \
	$(ALLOCS) > "$$tmp/now.allocs" && \
	paste -d ' ' "$$tmp/base.allocs" "$$tmp/now.allocs" | \
	awk 'BEGIN { printf "%-16s %10s %10s %8s\n", "workload", "base", "now", "delta%" } \
		{ d = ($$4 - $$2) / $$2 * 100; printf "%-16s %10.4f %10.4f %+7.2f%%\n", $$1, $$2, $$4, d; if (d > 2) bad = 1 } \
		END { if (bad) { print "alloc-diff: alloc_mb rose by more than 2% on a workload" > "/dev/stderr"; exit 1 } }'

# Host-time pairs for a claimed gain: the bench built once at BASE (extracted
# like digest-diff's) and once in the working tree, then for each workload in
# W (one name or a list, e.g. W="forward_paper load_small chaos_vs
# fleet_failover") and each seed one run on each side back to back,
# alternating which side runs first. For every end-to-end metric
# (PAIR_METRICS, each with the direction that is better: the five the host
# measures, then the three simulated ones, which move only with a declared
# output change and then show their per-seed deltas beside host time) it prints
# "seed base now ratio", then each side's median and quartiles, the pairs the
# tree wins and whether the medians differ by more than BASE's interquartile
# spread (ROADMAP "Gains are measured"), one workload's blocks after the
# other's. Host time is not a gate on a shared 2-vCPU box, so this gates
# nothing.
W ?= fleet_failover
SEEDS ?= 1 2 3 4 5 6 7 8 9 10
SECONDS ?= 3
PAIR_METRICS = lookups_per_s:higher wall_s:lower setup_s:lower alloc_mb:lower live_heap_mb:lower \
	delivered_frac:higher pj_per_bit:lower availability_min:higher
PAIR_RUN = (cd "$$1" && .bench_build/bench --workload $$3 --seed $$2 --seconds $(SECONDS)) | \
	awk -v metrics="$(PAIR_METRICS)" 'BEGIN { n = split(metrics, m); for (i = 1; i <= n; i++) sub(/:.*/, "", m[i]) } \
		{ v[$$1] = $$2 } END { for (i = 1; i <= n; i++) printf "%s%s", v[m[i]], i < n ? " " : "\n" }'
pair-diff:
	@$(BASE_TREE) && \
	(cd "$$tmp" && bash bench/run.sh --help >/dev/null 2>&1; test -x .bench_build/bench) && \
	(bash bench/run.sh --help >/dev/null 2>&1; test -x .bench_build/bench) || { echo "pair-diff: bench build failed" >&2; exit 1; }; \
	run() { $(PAIR_RUN); }; \
	for w in $(W); do i=0; \
	for s in $(SEEDS); do \
		if [ $$((i % 2)) -eq 0 ]; then b=$$(run "$$tmp" $$s $$w); n=$$(run . $$s $$w); \
		else n=$$(run . $$s $$w); b=$$(run "$$tmp" $$s $$w); fi; \
		echo "$$s $$b $$n"; i=$$((i + 1)); \
	done | awk -v metrics="$(PAIR_METRICS)" -v workload=$$w 'function q(v, n, p,   h, k) { h = p * (n - 1) + 1; k = int(h); return v[k] + (h - k) * (v[k + 1] - v[k]) } \
		function stats(col,   nb, name, better, i, j, t, n, b, c, wins) { \
			split(mm[col], nb, ":"); name = nb[1]; better = nb[2]; \
			printf "%s (%s is better)\n  %-5s %12s %12s %7s\n", name, better, "seed", "base", "now", "ratio"; \
			n = 0; for (i = 1; i <= NR; i++) { n++; b[n] = base[i, col]; c[n] = now[i, col]; \
				printf "  %-5s %12g %12g %7.3f\n", seed[i], b[n], c[n], b[n] ? c[n] / b[n] : 0; \
				if (better == "higher" ? c[n] > b[n] : c[n] < b[n]) wins++ } \
			for (i = 2; i <= n; i++) for (j = i; j > 1 && b[j - 1] > b[j]; j--) { t = b[j]; b[j] = b[j - 1]; b[j - 1] = t } \
			for (i = 2; i <= n; i++) for (j = i; j > 1 && c[j - 1] > c[j]; j--) { t = c[j]; c[j] = c[j - 1]; c[j - 1] = t } \
			mb = q(b, n, 0.5); mc = q(c, n, 0.5); iqr = q(b, n, 0.75) - q(b, n, 0.25); \
			printf "  base  median %g  quartiles %g %g\n", mb, q(b, n, 0.25), q(b, n, 0.75); \
			printf "  now   median %g  quartiles %g %g\n", mc, q(c, n, 0.25), q(c, n, 0.75); \
			printf "  median ratio %.3f; the tree wins %d of %d pairs; medians differ by %s the base IQR\n", \
				mb ? mc / mb : 0, wins, n, (mc - mb > iqr || mb - mc > iqr) ? "more than" : "no more than" } \
		BEGIN { nm = split(metrics, mm) } \
		{ seed[NR] = $$1; for (c = 1; c <= nm; c++) { base[NR, c] = $$(1 + c); now[NR, c] = $$(1 + nm + c) } } \
		END { printf "workload %s: alternated pairs, $(SECONDS) s a run\n", workload; for (c = 1; c <= nm; c++) stats(c) }'; \
	done

# The benchmark's trajectory: BENCH_<PR>.json at the root holds the commit,
# the date, the host's fingerprint (CPUs, CPU model, Go version), each
# workload's detail object from one traced run at seed 1 and, from PAIRS=<file>,
# a saved `make pair-diff` output, every pair-diff run in it: per metric, each
# seed's base and tree values and the two medians; from GATE=<file>, a saved
# bench-gate.out, each gated benchmark's per-side ns/op medians and pair
# count. The traced run's host numbers are thin (two untraced reps), so a
# record without pairs is refused. bench-trend prints every BENCH_*.json as
# one table, PR × workload × metric, the gate's rows beside the workloads,
# the host on every row and, on a host metric's, the pairs or reps it
# stands on, marked when fewer than five.
#   make bench-record PR=<n> PAIRS=<file> [GATE=<file>]
bench-record:
	@test -n "$(PR)" || { echo "bench-record: PR=<n> is required" >&2; exit 2; }
	@test -n "$(PAIRS)" || { echo "bench-record: PAIRS=<saved make pair-diff output> is required" >&2; exit 2; }
	@tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; 	for w in $(DIGEST_WORKLOADS); do bash bench/run.sh --workload $$w --seed 1 --trace 1 >> "$$tmp" || exit 1; done; 	$(GO) run ./cmd/benchtrend record $(PR) $$(git describe --always --dirty --abbrev=40) $(PAIRS) $(GATE) < "$$tmp"

bench-trend:
	@$(GO) run ./cmd/benchtrend
