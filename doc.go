// Package repro is a Go reproduction of "Performance Measurement and
// Modeling of Component Applications in a High Performance Computing
// Environment: A Case Study" (Ray, Trebon, Armstrong, Shende, Malony;
// IPDPS/PMEO 2004, SAND2003-8631).
//
// The repository implements the paper's full stack from scratch:
//
//   - a CCA component framework in the style of CCAFFEINE (ports, services,
//     assembly scripts, SCMD parallel execution);
//   - an MPI-1 subset running P simulated ranks over goroutines with
//     deterministic virtual clocks;
//   - a TAU-style measurement library (timers, groups, events, hardware
//     counters, profile dumps);
//   - the paper's PMM infrastructure: proxies, the Mastermind, per-invocation
//     records, call-trace capture;
//   - the scientific case study: a structured-AMR simulation of a Mach 1.5
//     shock hitting an Air/Freon interface, built from States,
//     EFMFlux/GodunovFlux, RK2, AMRMesh and ShockDriver components;
//   - regression-based performance models (Eqs. 1-2) and the composite-model
//     dual graph with implementation-choice optimization (Fig. 10);
//   - a campaign engine (internal/campaign) that runs the evaluation as a
//     parallel job graph: every sweep, case study and model fit is an
//     independent simulated-machine job executed by a worker pool;
//   - a streaming result subsystem (internal/results) — row sinks,
//     a content-addressed checkpoint store, and cross-scenario trend
//     reports — so campaigns scale to thousands of scenarios and resume
//     after interruption.
//
// # Campaigns
//
// The paper's evaluation is a campaign: three kernel sweeps (Figs. 4-8),
// a case study (Figs. 3/9/10) and a cache-size study, each a run of a
// self-contained simulated machine. The campaign engine executes such runs
// concurrently with deterministic results:
//
//   - a job graph (CampaignJob, with After dependencies) is submitted via
//     RunCampaign and executed by CampaignConfig.Workers workers;
//   - every job's machine draws its randomness from its own config seed,
//     never from scheduling, so output is byte-identical for any worker
//     count;
//   - errors aggregate across jobs (errors.Join) and progress events
//     stream serially through CampaignConfig.OnProgress.
//
// # Scheduler modes
//
// Every simulated world schedules its ranks under one of three modes
// (WorldConfig.Sched):
//
//   - SchedSerial (the zero value) is a conservative token scheduler:
//     exactly one rank goroutine executes at a time, and when the running
//     rank blocks inside MPI the token passes to the runnable rank with
//     the smallest virtual clock. One world uses one core.
//   - SchedConservativeParallel is a conservative parallel-discrete-event
//     scheduler: rank compute segments — which touch only rank-local
//     state (virtual clock, cache model, RNG, TAU profile) — run
//     concurrently on real goroutines, each rank running ahead to its
//     next interaction (its lookahead horizon: the next receive, wait or
//     collective that could observe another rank, bounded below by
//     pending message arrivals and the network model's minimum latency).
//     Every operation on order-sensitive shared state (mailbox matching,
//     collective completion, communicator-id allocation, collective-cost
//     noise draws) commits under the same token discipline in the same
//     total order the serial scheduler produces; sends are buffered
//     rank-locally during run-ahead and flushed at the sender's commit
//     turn. MaxParallelRanks caps concurrent ranks (0 = no cap).
//   - SchedOptimisticParallel is an optimistic (Time Warp) scheduler: on
//     top of concurrent compute, ranks speculate past order-sensitive
//     communication instead of waiting for their commit turn. Sends
//     publish immediately; a receive from a specific source completes the
//     moment its message is found (the pipelined fast path — per-sender
//     publication order equals committed order, so no speculation is
//     needed); wildcard (AnySource) matches and multi-request Waitsome
//     picks are speculative: the rank checkpoints its local state (virtual
//     clock, cache model, RNG position, TAU counters, request buffers)
//     into an undo log, and a commit automaton replays the serial token
//     discipline over the recorded per-rank event streams to validate
//     every pick. A mispredicted pick rolls the rank back to its
//     checkpoint and re-executes against the committed truth, so results
//     stay bit-identical to Serial. Collectives speculate too: a rank
//     whose peers have all published their contributions computes the
//     collective result itself — running ahead without a verdict when the
//     completion is provably exact (no network noise, or a
//     full-membership collective whose cost-noise draw index is pinned by
//     the commit order), and otherwise parking on a checkpointed
//     tentative result that the commit replay confirms or rolls back.
//     Speculation depth is bounded by a per-rank adaptive window
//     (WorldConfig.SpecWindowMin/Max, "-specwindow min:max"): windows
//     start at the max, halve on every rollback and creep back up after
//     batches of clean commits, so conflict-prone ranks throttle
//     themselves while clean ones run deep. The default keeps the fixed
//     4096-event window (and with it every existing scenario key and
//     checkpoint hash); a rank past its window parks until the automaton
//     catches up, which also guarantees quiescence for deadlock
//     detection. Telemetry — published sends, pipelined ops, speculated
//     ops, conflicts, rollbacks, re-executed virtual time, window stalls,
//     window grows/shrinks and observed min/max, speculative-collective
//     hits and rollbacks — is exposed via World.SpecStats and printed in
//     the deadlock dump.
//
// The determinism guarantee is bit-for-bit, proven by test, not hoped
// for: for every scenario of the golden grid both parallel schedulers
// produce identical profiles, virtual clocks, message orders and
// rendered CSV/report bytes (see TestGoldenGridParallelEquivalence,
// TestPropertySchedulerEquivalence and the forced-conflict rollback
// tests), so the zero-value config keeps checkpoint hashes, scenario keys
// and seeds byte-identical, and a non-default scheduler hashes
// distinctly.
//
// When does parallel-rank pay off? Measured by BenchmarkWorldRun on a
// 2-CPU host (-count 3), against the serial scheduler:
//
//   - compute/p8: "par" and "opt" each about 1.7x faster — rank compute
//     runs concurrently;
//   - ghost/p8: "par" ties; "opt" is 20–25% slower (6.4 vs 5.2 ms);
//   - wildcard/p8: "par" ties; "opt" is about 7.5x slower (4.8 vs
//     0.65 ms), paying rollbacks for genuine AnySource races;
//   - coll/p16: "par" is about 1.08x faster; "opt" about 1.33x faster
//     (5.4 vs 7.3 ms), from speculative collectives.
//
// So the conservative mode is the choice for compute-dominated bodies
// with many ranks; "opt" has a measured win only on collective-heavy
// bodies, none on ghost exchanges. Under heavy AnySource traffic watch
// SpecStats.Conflicts and tighten "-specwindow" so conflict-prone ranks
// throttle themselves.
//
// Across-world campaign parallelism (CampaignConfig.Workers) is the first
// lever: whole scenarios are embarrassingly parallel. The two compose
// multiplicatively (worlds x ranks); prefer campaign workers when the
// grid has many scenarios, and add parallel ranks ("-rankmode"/"-rankpar"
// on cmd/figures and cmd/pmmcase, or a SchedAxis grid dimension) when
// individual worlds are large or few. The SchedAxis/SchedModeAxis grid dimension is seed-inert
// — scenarios differing only in scheduler share a derived seed — so a
// grid can sweep serial vs the parallel modes and verify their
// equivalence at scale (see examples/campaign).
//
// # Grids and dimensions
//
// A Grid is the cross product of first-class axes times seed
// replications. Each axis is a Dimension — a stable name plus an ordered
// value list, where every value carries a stable key token (one segment
// of the scenario key) and an optional mutation of the scenario's
// simulated machine:
//
//   - built-in machine axes: RankAxis (world size), NetAxis
//     (interconnect), CacheAxis (per-rank cache kB), and CPUAxis /
//     CPUClockAxis (CPUTune: clock scale, cache hit/miss penalty
//     multipliers — the Section 6 "parameterized by processor speed"
//     knobs);
//   - built-in app-level axes: MeshAxis (case-study base grid) and
//     FluxAxis (godunov/efm/states), mapped onto harness configs through
//     the scenario's coordinates;
//   - custom axes are Dimension literals — a user-defined name, keys and
//     Apply hooks — with no library change (see examples/campaign, which
//     sweeps network load noise);
//   - expansion (Grid.Scenarios) is deterministic, derives each
//     scenario's seed via DeriveSeed(base, key) so replications draw
//     independent streams, and rejects duplicate axis names or value keys,
//     which would silently alias scenario keys and checkpoint entries;
//   - a replication whose seed provably cannot matter is not re-run: in a
//     streaming grid (StreamSweepGrid) a States scenario's replications
//     r>=1 wait on its r0 and, when r0's world drew no random numbers and
//     the scheduler is not "opt" (whose spec row is wall-clock
//     dependent), emit r0's rows under their own keys and return r0's
//     fitted model — the exact bytes a full run would produce. Job keys,
//     checkpoint hashes and outputs are unchanged; the flux kernels, whose
//     patch contents are random, always run every replication;
//   - unswept rank/net/cache axes contribute implicit single-valued
//     defaults (key segments "p3", "base", "c512kB"), and any other
//     unswept axis contributes nothing, so scenario keys, seeds and
//     checkpoint hashes are stable as the axis library grows.
//
// A Scenario carries its coordinate on every axis ([]Coord) rather than
// one struct field per dimension, so consumers — RunSweepGrid,
// StreamSweepGrid, trend reports — handle any axis generically.
//
// See examples/campaign for a grid study and cmd/figures for the full
// figure-regeneration graph.
//
// # Results and checkpointing
//
// Campaign jobs do not have to buffer whole results in memory: they stream
// rows into a Sink (CampaignConfig.Sink), and the streaming grid driver
// (StreamSweepGrid) keeps only a small GridPoint per scenario, so a
// thousand-scenario grid runs in bounded memory:
//
//   - a Row is an ordered list of named, typed fields; jobs emit rows
//     under their campaign key via EmitRow;
//   - sinks are concurrency-safe and deterministic (rows keep per-key
//     order): NewCSVShardSink writes one CSV file per key, NewBinShardSink
//     writes the same rows in the length-prefixed binary shard format
//     (see "Results service" below), NewAggSink keeps running
//     mean/min/max/stddev per (key, field) and drops the rows,
//     NewMemorySink buffers for tests, NewTee fans out to several sinks
//     at once; ReadRowsFile decodes either shard format back into rows;
//   - every harness job is checkpointable: with CampaignConfig.Store set
//     (OpenStore), finished payloads persist content-addressed by
//     (job key, config hash), so an interrupted campaign — a killed
//     cmd/figures run, a canceled grid — resumes re-running zero
//     completed jobs and produces byte-identical output, with cached
//     jobs replaying their rows into the sink;
//   - the cross-scenario trend report (BuildTrends, WriteTrendCSV,
//     WriteTrendReport) fits every model coefficient against any swept
//     numeric dimension, selected by a TrendAxis (TrendCacheKB,
//     TrendCPUClock, TrendRanks, TrendMeshCells, or TrendByAxis for a
//     custom dimension) — the paper's Section 6 "coefficients
//     parameterized by processor speed and a cache model" — and is
//     emitted by "cmd/figures -fig trend [-axis cpu_clock]" and
//     "cmd/pmmcase -report [-axis cpu_clock]".
//
// # Distributed campaigns
//
// The checkpoint store is content-addressed and atomic, so several hosts
// can share one store directory over a network filesystem — and the lease
// protocol (results/store/lease, re-exported as LeaseManager) lets N
// independent processes partition one grid through it with no
// coordinator. Set CampaignConfig.Claimer (OpenLeaseManager, or
// DistributedCampaignConfig to wire store and claimer together) and point
// every process at the same store:
//
//   - lease lifecycle: a worker claims a job by creating its lease file
//     exclusively (the record is written to a temp file and link(2)ed
//     into place, so it appears atomically and fully written); a held
//     lease is rewritten with a fresh heartbeat timestamp every
//     LeaseOptions.Heartbeat; the claim is released — audit line first,
//     then lease removal — after the job's checkpoint is stored, at which
//     point the payload answers every later claim with "done";
//   - jobs claimed by another live process are deferred, not blocked on:
//     workers move to other ready jobs and re-probe every
//     CampaignConfig.ClaimBackoff, decoding the payload (and replaying
//     its rows) once it appears — so each process's sinks and rendered
//     files stay byte-identical to a single-process run while each
//     scenario executes exactly once across the fleet, as the per-owner
//     audit logs under <store>/leases/ prove;
//   - crashed workers stop heartbeating: once a lease's heartbeat is
//     older than LeaseOptions.TTL, any claimant steals it (rename-aside
//     with exactly one winner, then an ordinary exclusive re-claim), so
//     the grid always drains;
//   - heartbeat/expiry knobs: TTL defaults to 30s and the renewal
//     interval to TTL/4. Choose TTL well above worst-case clock skew
//     between hosts and the filesystem's attribute-cache delay; a live
//     worker that stalls past TTL can have its job stolen and executed
//     twice, which the deterministic byte-identical payloads make
//     harmless but the audit makes visible;
//   - NFS caveats: the exclusive-link claim and rename-based steal need
//     NFSv3+ semantics, hosts should be NTP-synchronized, and attribute
//     caching (acregmin/acregmax) delays cross-host visibility of fresh
//     checkpoints — generous TTLs and ClaimBackoffs absorb both.
//
// "cmd/figures -distributed -owner <id> -cache <shared dir>" and
// "cmd/pmmcase -distributed -owner <id> -cache <shared dir>" run this
// mode from the command line; hosts x campaign workers x parallel ranks
// compose multiplicatively.
//
// # Results service
//
// A finished campaign's rows directory is itself a queryable performance
// model: cmd/resultsd (internal/results/serve, re-exported here as
// ResultsService / NewResultsService) serves it over HTTP without
// re-running a single simulation. Point it at a rows directory — or a
// campaign output directory containing rows/ — and it fits the paper's
// regression models on demand:
//
//	resultsd -dir campaign-out -addr 127.0.0.1:9190
//
// Endpoints (GET only; JSON):
//
//   - /          service summary: rows dir, scenarios, axes, backends,
//     endpoints;
//   - /healthz   liveness;
//   - /metrics   obs registry text exposition;
//   - /scenarios catalog metadata (no shard decoded); optional ?name=;
//   - /scenario  full detail — rows, fitted coefficients and model
//     descriptions per backend — for scenarios matching the selectors;
//   - /predict   evaluate one measure of one scenario at a point;
//   - /trend     fitted-coefficient-vs-axis curves across the scenarios
//     matching a filter.
//
// The query grammar mirrors the scenario-key grammar: a key like
// "p4_base_c256kB_cpu1.5x_opt_r0" parses into coordinates on the
// ranks, cache_kb, cpu_clock (and, when swept, mesh_cells) and rep
// axes, a scheduler, and free tags (any unrecognized token — "base"
// above), so /scenario and /trend accept selectors by name ("name="),
// by scheduler ("sched=serial|par|opt"), by tag ("tag=base") and by
// numeric axis value ("cache_kb=256", "ranks=4", ...). /predict takes scenario, measure
// (mean_us, sigma_us, throughput, response_us, utilization), model
// (fitted — the default — or queue), and the evaluation point: q,
// optional lambda (arrival rate, 1/s) and dcm (L2 data-cache misses).
// The fitted backend serves the AIC-selected regression (linear,
// quadratic or power-law; Eqs. 1-2, plus the multivariate fit over
// (Q, DCM) when cache counters are present); the queue backend treats
// the measured service demand as an M/M/1 server (Section 5's queueing
// view) and answers response_us and utilization from (q, lambda).
//
// Scenario shards load through a read-through model cache: first touch
// decodes the shard and fits every backend, concurrent requests for the
// same scenario share one load (singleflight), and an LRU bound (-cache,
// default 256 scenarios) evicts the coldest entry. Hits, misses,
// evictions and load latency are exported as resultsd_cache_* counters
// and the resultsd_scenario_load_us histogram on /metrics; failed loads
// are never cached. The determinism contract extends to the service:
// responses carry no timestamps, no absolute paths and no map-ordered
// JSON, so two resultsd instances over byte-identical stores return
// byte-identical bodies for every request — CI curls a live instance
// and diffs against the documented examples.
//
// Binary row shards are the service's preferred input: NewBinShardSink
// writes one <key>-<hash>.bin file per campaign key (the same naming as
// the CSV shards) — magic "RRBS", one version byte, then
// per row a uvarint body length and a body of uvarint-counted fields
// (uvarint name length + name, a tag byte, then the value: 1 = int as
// zigzag varint, 2 = float64 as little-endian IEEE 754 bits, 3 = string
// as uvarint length + bytes, 4 = bool as one byte). Encoding is a pure
// function of the rows, so equal rows give byte-identical shards, and a
// binary shard re-encoded as CSV reproduces the sibling CSV shard byte
// for byte ("cmd/figures -rowformat csv|bin|both" writes either or
// both; resultsd and "cmd/obsreport -rows" read both, preferring .bin
// when a stem has both). The full request/response contract — parameter
// tables, example bodies, error codes (400/404/405/422) and a curl
// walkthrough — lives in docs/resultsd-api.md.
//
// # Observability
//
// The stack observes itself (internal/obs, re-exported here as Observer,
// EnableObserver and friends): a span tracer and a metrics registry that
// the campaign engine, the lease protocol, the checkpoint store and the
// simulated MPI world record into. The design holds two invariants:
//
//   - Determinism: observation is write-only. Nothing recorded feeds
//     back into scheduling, scenario keys, checkpoint hashes or seeds,
//     so an observed run renders byte-identical output to an unobserved
//     one (TestObservedRunByteIdentical pins this over the golden grid).
//   - Nil-safety: every tracer and registry method no-ops on a nil
//     receiver. Layers capture possibly-nil instrument handles when they
//     are constructed, so disabled observability costs one nil check per
//     event. Because capture happens at construction, EnableObserver
//     must run before OpenStore / OpenLeaseManager / NewWorld /
//     RunCampaign.
//
// The tracer keeps one track — a fixed-size ring buffer under its own
// mutex, oldest events overwritten and the drop count exported — per
// campaign worker ("campaign"/"worker NN": one span per job, annotated
// run/cached/error, plus claim-deferral instants), per simulated rank
// ("mpi"/"wW rank R": one span per MPI call, compute-gap spans between
// calls, and speculation instants — speculate, conflict, rollback,
// window stall), and per lease owner ("lease"/<owner>: hold spans,
// claim/steal instants). Export produces Chrome trace-event JSON that
// chrome://tracing and Perfetto load directly.
//
// The registry exposes counters, gauges and fixed-bucket histograms in
// a Prometheus-flavoured text format. Metric names follow
// <layer>_<what>_total for counters and <layer>_<what>_us for latency
// histograms: campaign_jobs_settled_total, campaign_job_us,
// store_puts_total, store_get_us, lease_claims_total, lease_steals_total,
// lease_hold_us, mpi_token_grants_total, mpi_spec_conflicts_total,
// mpi_spec_rollbacks_total and so on — World.SpecStats folds into the
// mpi_spec_* family at the end of every optimistic run.
//
// From the command line, "cmd/figures -trace run.json" writes the trace,
// "-metrics localhost:9090" serves live /metrics and /trace endpoints
// while the campaign executes, and "-metricsdump metrics.txt" writes the
// final registry for CI. "cmd/obsreport -store <shared dir> -trace
// run.json" turns a finished distributed run's lease audit and trace
// into per-owner and per-track throughput tables, and validates the
// trace schema (-require campaign,lease,mpi) so CI fails when an
// instrumentation layer goes silent. Non-serial sweep jobs additionally
// emit their SpecStats as a "spec/<job key>" row shard — conflict and
// rollback rates, the adaptive window's grows/shrinks and observed
// min/max, and speculative-collective hits and rollbacks — so speculation
// behavior lands in the campaign's CSV output next to the measurements it
// explains, and "cmd/obsreport -rows <dir>" aggregates those shards into
// a per-scenario speculation table after the fact.
//
// # Static analysis
//
// The determinism and responsiveness invariants above are enforced
// statically, not just by golden tests: internal/lint implements six
// repository-specific analyzers in the go/analysis style (self-contained
// on the standard library — packages load via "go list -export" and the
// gc export-data importer, so the suite runs offline), and cmd/repolint
// is the multichecker driver:
//
//   - wallclock: time.Now/Since/Until, the global math/rand functions and
//     process identity (os.Getpid, os.Hostname) in deterministic
//     packages — values must derive from config and seeds;
//   - mapiter: map iteration whose order leaks into an io.Writer, a
//     results Sink or a returned slice without sorting first;
//   - gostringpin: %#v-pinned structs (checkpoint config hashing) whose
//     GoString shim fails to handle a declared field, which would
//     silently change stored hashes when the field is first set;
//   - lockio: file/network I/O or blocking channel operations while a
//     mutex acquired in the same function is held — the lease-heartbeat
//     starvation bug class;
//   - obscapture: obs.Active() or instrument lookups inside loops,
//     violating the capture-at-construction rule above;
//   - pkgdoc: packages without a package doc comment — the written API
//     contract (this overview, docs/resultsd-api.md) is anchored in
//     per-package docs, so an undocumented package fails the lint gate.
//
// "go run ./cmd/repolint ./..." must exit 0; CI gates on it. Legitimate
// exceptions are annotated in place:
//
//	//repolint:allow wallclock -- lease heartbeats are wall-clock by protocol
//
// The reason after "--" is mandatory and the directive covers its own
// line, the line below it, or — when placed in a function's doc
// comment — the whole function. Malformed or unknown-name directives are
// themselves diagnostics. Suppressed findings stay visible in
// "repolint -json" output, so the allowlist is auditable: every
// wall-clock read (lease heartbeats, obs span timestamps, bench
// fingerprints) and every I/O-under-lock design decision is annotated
// with its justification.
//
// Benchmark trajectory: cmd/benchlog records the benchmark suite into
// the checked-in BENCH_*.json log and gates pull requests at +25% ns/op
// against the newest baseline from a comparable host class. The gate
// arms per host class via "benchlog -out BENCH_0006.json -ifnew" on
// pushes to main (see cmd/benchlog's doc for the CI wiring).
//
// This package is the facade: it re-exports the experiment harness and the
// campaign engine that regenerate every figure of the paper's evaluation.
// The underlying packages live in internal/.
package repro
