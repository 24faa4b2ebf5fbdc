// Package mpi implements the MPI-1 subset that CCAFFEINE's SCMD (Single
// Component Multiple Data) execution model relies on, running over
// goroutines inside one process: blocking and nonblocking point-to-point
// (including MPI_Waitsome, the paper's hottest MPI call), collectives,
// and communicator duplication/creation.
//
// Each simulated rank owns a platform.Proc (virtual clock, cache, RNG) and
// a tau.Profile; every MPI entry point is wrapped in a TAU timer of group
// "MPI", exactly like TAU's MPI profiling interface, so the Fig. 3 profile
// rows and the Mastermind's "time in MPI" query come out of the same
// mechanism the paper used.
//
// Scheduling is conservative and fully deterministic in both modes:
//
//   - Serial (the zero value) is the original token model: exactly one
//     rank executes at a time, and whenever the running rank blocks inside
//     MPI, the token passes to the runnable rank with the smallest virtual
//     clock. Message arrival times are computed from the sender's clock
//     plus the network model, so "time spent waiting in MPI" is the
//     difference between virtual arrival and the receiver's entry time —
//     deterministic run to run.
//   - ConservativeParallel runs rank goroutines concurrently between
//     communication events: compute segments (which touch only rank-local
//     state — clock, cache, RNG, profile) execute in parallel on real
//     cores, while every operation on order-sensitive shared state
//     (mailboxes, collectives, communicator ids, the collective-cost RNG)
//     commits under the same token discipline the serial scheduler uses,
//     in the same total order. Sends are buffered rank-locally during
//     run-ahead and flushed at the rank's next commit turn. The result is
//     bit-for-bit identical virtual clocks, profiles and message orders —
//     parallelism is purely a wall-clock optimization.
package mpi

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/tau"
)

// rank execution states for the token scheduler.
const (
	stReady = iota
	stRunning
	stBlocked
	stDone
)

// SchedulerMode selects how World.Run schedules its rank goroutines. All
// modes produce bit-for-bit identical virtual clocks, profiles and
// message orders; they differ only in wall-clock time and core usage.
type SchedulerMode int

const (
	// Serial is the original token scheduler: exactly one rank goroutine
	// executes at a time, so a world uses one core regardless of size.
	Serial SchedulerMode = iota
	// ConservativeParallel executes rank compute segments concurrently,
	// synchronizing only at communication events: each rank runs ahead to
	// its next interaction (its lookahead horizon) on its own goroutine,
	// and shared-state commits replay the serial token order exactly.
	ConservativeParallel
	// OptimisticParallel speculates past order-sensitive operations in the
	// Time Warp style: ranks run ahead publishing sends immediately, match
	// wildcard receives tentatively under an undo log, and a commit
	// automaton replays the serial token order over the recorded event
	// streams, validating every speculative outcome before the operation
	// returns — rolling the rank back and re-executing on a mis-match.
	// Results stay bit-identical to Serial; only wall-clock time changes.
	OptimisticParallel
)

// schedulerModeTokens is the single registry of valid scheduler modes and
// their stable string tokens. String, Validate and flag parsing all read
// this table, so adding a mode cannot silently produce "SchedulerMode(n)"
// scenario keys or pass validation unchecked.
var schedulerModeTokens = map[SchedulerMode]string{
	Serial:               "serial",
	ConservativeParallel: "par",
	OptimisticParallel:   "opt",
}

// String returns the mode's stable token ("serial", "par", "opt"), used by
// the campaign scheduler axis and command-line flags.
func (m SchedulerMode) String() string {
	if tok, ok := schedulerModeTokens[m]; ok {
		return tok
	}
	return fmt.Sprintf("SchedulerMode(%d)", int(m))
}

// ParseSchedulerMode maps a stable token ("serial", "par", "opt") back to
// its SchedulerMode, for command-line flags.
func ParseSchedulerMode(tok string) (SchedulerMode, error) {
	for m, t := range schedulerModeTokens {
		if t == tok {
			return m, nil
		}
	}
	return 0, fmt.Errorf("mpi: unknown scheduler mode %q (want serial, par or opt)", tok)
}

// CPUTune scales the per-rank CPU model relative to its calibrated base —
// the paper's Section 6 "parameterized by processor speed and a cache
// model" machine knobs, exposed as campaign grid dimensions. Every field
// is a multiplier; the zero value (and 1.0) leaves the calibrated model
// bit-for-bit unchanged.
type CPUTune struct {
	// ClockScale multiplies the core clock (2.0 simulates a CPU twice as
	// fast as the paper's 2.8 GHz Xeon). Zero means 1.
	ClockScale float64
	// HitScale multiplies the cache-hit cycle cost. Zero means 1.
	HitScale float64
	// MissScale multiplies the cache-miss (memory) penalty — a crude DRAM
	// speed knob. Zero means 1.
	MissScale float64
}

// IsZero reports whether the tune leaves the CPU model untouched.
func (t CPUTune) IsZero() bool { return t == CPUTune{} }

// orOne maps the zero value of a multiplier knob to 1.
func orOne(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

// Apply returns the CPU model with the tune's scales applied. A zero tune
// returns m unchanged (no arithmetic at all, so calibrated timings stay
// bit-for-bit identical).
func (t CPUTune) Apply(m platform.CPUModel) platform.CPUModel {
	if t.IsZero() {
		return m
	}
	m.ClockGHz *= orOne(t.ClockScale)
	m.HitCycles *= orOne(t.HitScale)
	m.MissCycles *= orOne(t.MissScale)
	return m
}

// WorldConfig assembles the simulated machine: P ranks, each with the given
// CPU and cache, connected by the given network.
type WorldConfig struct {
	// Procs is the number of SCMD ranks (the paper used 3).
	Procs int
	// CPU is the per-rank processor model.
	CPU platform.CPUModel
	// Cache is the per-rank cache geometry.
	Cache cache.Config
	// Net is the interconnect model.
	Net netmodel.Model
	// Seed makes all random streams (network noise) reproducible.
	Seed int64
	// InitUS and FinalizeUS are the one-time costs charged by MPI_Init and
	// MPI_Finalize (startup/teardown of the parallel machine). Zero values
	// get defaults matching the Fig. 3 magnitudes.
	InitUS     float64
	FinalizeUS float64
	// Tune scales the CPU model (clock, hit/miss penalties) relative to
	// its calibrated base. The zero value changes nothing.
	Tune CPUTune
	// Sched selects the rank scheduler. The zero value is the serial token
	// scheduler; ConservativeParallel and OptimisticParallel run rank
	// compute concurrently with bit-for-bit identical results.
	Sched SchedulerMode
	// MaxParallelRanks caps how many ranks compute concurrently under the
	// parallel schedulers. Zero means no cap (the Go runtime's GOMAXPROCS
	// governs actual parallelism); it is ignored by the serial scheduler.
	MaxParallelRanks int
	// SpecWindowMin and SpecWindowMax bound the optimistic scheduler's
	// per-rank adaptive speculation window: each rank's window starts at
	// SpecWindowMax, halves (never below SpecWindowMin) whenever the rank
	// rolls back, and grows back additively after clean commit batches.
	// Both zero (the default) keeps the fixed 4096-event window, so
	// existing scenario keys and checkpoint hashes stay byte-identical;
	// set both (0 < min <= max) to enable adaptation. min == max pins a
	// fixed window of that size. Ignored outside OptimisticParallel.
	SpecWindowMin int
	SpecWindowMax int
}

// legacyWorldConfig mirrors WorldConfig's pre-Tune field set. GoString
// renders through it so configurations that do not use the CPU tune or the
// parallel scheduler keep the exact %#v bytes they had before those fields
// existed — campaign checkpoint hashes are SHA-256 digests of that
// rendering, and stored payloads from earlier runs must stay addressable.
type legacyWorldConfig struct {
	Procs      int
	CPU        platform.CPUModel
	Cache      cache.Config
	Net        netmodel.Model
	Seed       int64
	InitUS     float64
	FinalizeUS float64
}

// GoString implements fmt.GoStringer (%#v). A zero Tune/Sched renders
// exactly like the pre-Tune WorldConfig; non-default fields are appended,
// so tuned machines and non-default schedulers hash distinctly while
// untouched configs keep byte-identical checkpoint hashes and seeds.
func (c WorldConfig) GoString() string {
	legacy := legacyWorldConfig{
		Procs: c.Procs, CPU: c.CPU, Cache: c.Cache, Net: c.Net,
		Seed: c.Seed, InitUS: c.InitUS, FinalizeUS: c.FinalizeUS,
	}
	s := "mpi.WorldConfig" + strings.TrimPrefix(fmt.Sprintf("%#v", legacy), "mpi.legacyWorldConfig")
	if !c.Tune.IsZero() {
		s = strings.TrimSuffix(s, "}") + fmt.Sprintf(", Tune:%#v}", c.Tune)
	}
	if c.Sched != Serial {
		s = strings.TrimSuffix(s, "}") + fmt.Sprintf(", Sched:%d}", int(c.Sched))
	}
	if c.MaxParallelRanks != 0 {
		s = strings.TrimSuffix(s, "}") + fmt.Sprintf(", MaxParallelRanks:%d}", c.MaxParallelRanks)
	}
	if c.SpecWindowMin != 0 || c.SpecWindowMax != 0 {
		s = strings.TrimSuffix(s, "}") + fmt.Sprintf(", SpecWindowMin:%d, SpecWindowMax:%d}", c.SpecWindowMin, c.SpecWindowMax)
	}
	return s
}

// Validate reports whether the configuration describes a runnable machine.
// It catches misconfigurations — a non-positive rank count, a negative
// parallel-rank cap, an unknown scheduler mode, negative CPU-tune
// multipliers — with a clear error before any simulation state exists,
// instead of a late panic deep inside a run.
func (c WorldConfig) Validate() error {
	if c.Procs <= 0 {
		return fmt.Errorf("mpi: invalid world config: Procs %d (world size must be positive)", c.Procs)
	}
	if _, ok := schedulerModeTokens[c.Sched]; !ok {
		return fmt.Errorf("mpi: invalid world config: unknown scheduler mode %d", int(c.Sched))
	}
	if c.MaxParallelRanks < 0 {
		return fmt.Errorf("mpi: invalid world config: MaxParallelRanks %d (must be >= 0; 0 means no cap)", c.MaxParallelRanks)
	}
	if c.Tune.ClockScale < 0 || c.Tune.HitScale < 0 || c.Tune.MissScale < 0 {
		return fmt.Errorf("mpi: invalid world config: negative CPU tune multiplier %+v", c.Tune)
	}
	if c.SpecWindowMin < 0 || c.SpecWindowMax < 0 {
		return fmt.Errorf("mpi: invalid world config: negative speculation window bounds [%d, %d]", c.SpecWindowMin, c.SpecWindowMax)
	}
	if (c.SpecWindowMin == 0) != (c.SpecWindowMax == 0) {
		return fmt.Errorf("mpi: invalid world config: speculation window bounds [%d, %d] (set both or neither)", c.SpecWindowMin, c.SpecWindowMax)
	}
	if c.SpecWindowMin > c.SpecWindowMax {
		return fmt.Errorf("mpi: invalid world config: speculation window bounds [%d, %d] (min must not exceed max)", c.SpecWindowMin, c.SpecWindowMax)
	}
	return nil
}

// WithRankParallelism returns the config with the scheduler set from a
// single knob, the shape command-line flags (-rankpar) use: 0 keeps the
// serial scheduler, n > 0 enables ConservativeParallel capped at n
// concurrent ranks, and a negative n enables it with no cap. Results are
// bit-identical either way; only wall-clock time changes.
func (c WorldConfig) WithRankParallelism(n int) WorldConfig {
	if n == 0 {
		return c
	}
	return c.WithScheduler(ConservativeParallel, n)
}

// WithScheduler returns the config with the given scheduler mode and
// parallel-rank cap, the shape the -rankmode/-rankpar command-line flags
// use. For the parallel modes, n > 0 caps concurrency at n ranks and n <= 0
// means no cap; for Serial the cap is cleared. Results are bit-identical in
// every mode; only wall-clock time changes.
func (c WorldConfig) WithScheduler(mode SchedulerMode, n int) WorldConfig {
	c.Sched = mode
	if mode != Serial && n > 0 {
		c.MaxParallelRanks = n
	} else {
		c.MaxParallelRanks = 0
	}
	return c
}

// WithSpecWindow returns the config with the optimistic scheduler's
// adaptive speculation window bounded to [min, max] recorded events per
// rank, the shape the -specwindow command-line flag uses. min == max pins
// a fixed window of that size; 0, 0 restores the default fixed
// 4096-event window. The window only changes wall-clock behavior —
// results stay bit-identical — but a non-default window salts the
// checkpoint hash like the other non-serial knobs.
func (c WorldConfig) WithSpecWindow(min, max int) WorldConfig {
	c.SpecWindowMin, c.SpecWindowMax = min, max
	return c
}

// ParseSpecWindow parses a -specwindow flag value: "min:max" bounds the
// adaptive window, a single positive integer pins a fixed window of that
// size, and "" or "0" keeps the default fixed 4096-event window.
func ParseSpecWindow(s string) (min, max int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	bad := func() (int, int, error) {
		return 0, 0, fmt.Errorf("mpi: invalid speculation window %q (want \"min:max\", a fixed size, or 0)", s)
	}
	if lo, hi, ok := strings.Cut(s, ":"); ok {
		min, err1 := strconv.Atoi(lo)
		max, err2 := strconv.Atoi(hi)
		if err1 != nil || err2 != nil || min <= 0 || max < min {
			return bad()
		}
		return min, max, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		return bad()
	}
	if v == 0 {
		return 0, 0, nil
	}
	return v, v, nil
}

// DefaultConfig returns the paper-calibrated 3-rank world.
func DefaultConfig() WorldConfig {
	return WorldConfig{
		Procs: 3,
		CPU:   platform.XeonModel(),
		Cache: cache.XeonL2(),
		Net:   netmodel.FastEthernet(),
		Seed:  1,
	}
}

type mailKey struct {
	comm int
	dst  int // world rank of the receiver
}

type message struct {
	src    int // rank within the communicator
	tag    int
	data   []float64
	arrive float64 // virtual arrival time at the destination
	seq    uint64
	// taken marks a published message tentatively consumed by a
	// speculative receive under the optimistic scheduler: it stays out of
	// later speculative picks while remaining visible to the committed-order
	// replay, which performs the authoritative match.
	taken bool
}

// pendingSend is a send buffered during parallel run-ahead: the message is
// fully computed (payload copy, arrival time from the sender's clock and
// RNG) but not yet visible to receivers. It lands in the world mailbox at
// the sender's next commit turn, in program order, so the mailbox evolves
// exactly as under the serial scheduler.
type pendingSend struct {
	key mailKey
	msg *message
}

// blockDesc describes what a blocked rank is waiting on, for deadlock
// diagnostics. It is a small value stored on every block (the hot path),
// rendered only if the world deadlocks.
type blockDesc struct {
	op       string // MPI entry point, e.g. "MPI_Recv()"
	comm     int
	src, tag int
	pending  int // pending receives (Waitall/Waitsome)
}

// String renders the description for the deadlock report.
func (d blockDesc) String() string {
	if d.op == "" {
		return "?"
	}
	name := strings.TrimSuffix(d.op, "()")
	switch {
	case d.pending > 0:
		return fmt.Sprintf("%s(%d pending receives) on comm %d", name, d.pending, d.comm)
	case strings.Contains(d.op, "Recv") || strings.Contains(d.op, "Wait"):
		src := "any"
		if d.src != AnySource {
			src = fmt.Sprintf("%d", d.src)
		}
		tag := "any"
		if d.tag != AnyTag {
			tag = fmt.Sprintf("%d", d.tag)
		}
		return fmt.Sprintf("%s(src=%s, tag=%s) on comm %d", name, src, tag, d.comm)
	default:
		return fmt.Sprintf("%s on comm %d", name, d.comm)
	}
}

// World is the simulated parallel machine. Create one with NewWorld, then
// call Run with the SCMD body. All exported methods on Comm must be called
// from within the body, on the goroutine Run started for that rank.
type World struct {
	cfg WorldConfig
	par bool // cfg.Sched == ConservativeParallel
	opt bool // cfg.Sched == OptimisticParallel

	// o holds the optimistic scheduler's shared state (published messages,
	// per-rank event streams, the commit automaton). Nil unless opt.
	o *optState

	mu        sync.Mutex
	cond      *sync.Cond
	ranks     []*Rank
	status    []int
	blocked   []func() bool
	blockedOn []blockDesc
	current   int
	aborted   bool

	// Parallel-scheduler state. vclock is each rank's clock as committed at
	// its last scheduling point: while a rank computes ahead its real clock
	// advances without the lock, so the scheduler must never read it —
	// vclock is the serial-replay value the token discipline needs. The
	// slot fields implement the MaxParallelRanks cap.
	vclock   []float64
	slots    int
	active   int
	slotHeld []bool

	mailboxes map[mailKey][]*message
	seq       uint64

	colls      map[int]*collState
	nextCommID int
	rng        *rand.Rand
	rngSrc     *platform.CountingSource // rng's source; counts collective-noise draws

	panics []error

	// Observability (nil/zero when the global observer is disabled at
	// NewWorld). trk holds one trace lane per rank; met the cached
	// registry instruments. Recording is strictly write-only — nothing
	// here is ever read back into scheduling decisions, so observed and
	// unobserved worlds produce bit-identical results.
	trk []*obs.Track
	met worldMetrics
}

// worldMetrics caches the registry instruments a world records into.
// The zero value (all nil) makes every update a no-op.
type worldMetrics struct {
	worlds        *obs.Counter
	grants        *obs.Counter
	specPub       *obs.Counter
	specPipe      *obs.Counter
	specOps       *obs.Counter
	specCommit    *obs.Counter
	conflicts     *obs.Counter
	rollbacks     *obs.Counter
	windowStalls  *obs.Counter
	windowGrows   *obs.Counter
	windowShrinks *obs.Counter
	collHits      *obs.Counter
	collRollbacks *obs.Counter
	reexecUS      *obs.Histogram
}

// worldSeq numbers observed worlds so their trace tracks stay distinct
// when one process runs many worlds. Only advanced when an observer is
// active; it never influences simulation state.
var worldSeq atomic.Uint64

// rankTrack returns rank r's trace lane, or nil when unobserved.
func (w *World) rankTrack(r int) *obs.Track {
	if w.trk == nil {
		return nil
	}
	return w.trk[r]
}

// Rank is the execution context handed to the SCMD body for one rank: its
// world communicator, platform processor and TAU profile.
type Rank struct {
	world *World
	rank  int

	// pending buffers sends during parallel run-ahead (owner-rank access
	// only; flushed under the world lock at the rank's commit turns).
	pending []pendingSend

	// lastOpEnd is the tracer clock when this rank's previous MPI entry
	// point returned (owner-rank access only; meaningful only when the
	// world is observed). The gap to the next entry is the rank's compute
	// segment, recorded as a span.
	lastOpEnd int64

	// Comm is the rank's MPI_COMM_WORLD analog.
	Comm *Comm
	// Proc is the rank's simulated processor (clock, cache, RNG, heap).
	Proc *platform.Proc
	// Prof is the rank's TAU measurement context. MPI timers appear here
	// under group "MPI".
	Prof *tau.Profile
}

// Rank returns this context's world rank.
func (r *Rank) Rank() int { return r.rank }

// NewWorld builds the simulated machine. It panics with the Validate error
// on a misconfiguration (non-positive rank count, negative parallel-rank
// cap, ...), mirroring an mpirun misconfiguration; callers that want an
// error instead should call cfg.Validate first (grid expansion does).
func NewWorld(cfg WorldConfig) *World {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if cfg.InitUS == 0 {
		cfg.InitUS = 600_000
	}
	if cfg.FinalizeUS == 0 {
		cfg.FinalizeUS = 140_000
	}
	w := &World{
		cfg:        cfg,
		par:        cfg.Sched == ConservativeParallel,
		opt:        cfg.Sched == OptimisticParallel,
		current:    -1,
		mailboxes:  make(map[mailKey][]*message),
		colls:      make(map[int]*collState),
		nextCommID: 1,
		status:     make([]int, cfg.Procs),
		blocked:    make([]func() bool, cfg.Procs),
		blockedOn:  make([]blockDesc, cfg.Procs),
		panics:     make([]error, cfg.Procs),
	}
	w.rngSrc = platform.NewCountingSource(cfg.Seed ^ 0x51ca5e)
	w.rng = rand.New(w.rngSrc)
	w.cond = sync.NewCond(&w.mu)
	group := make([]int, cfg.Procs)
	for i := range group {
		group[i] = i
	}
	cpu := cfg.Tune.Apply(cfg.CPU)
	for i := 0; i < cfg.Procs; i++ {
		proc := platform.NewProc(i, cpu, cfg.Cache, cfg.Seed)
		prof := tau.NewProfile(proc.Now)
		prof.RegisterMetric("PAPI_L2_DCM", func() float64 { return float64(proc.Counters().L2DCM) })
		prof.RegisterMetric("PAPI_FP_OPS", func() float64 { return float64(proc.Counters().FPOps) })
		r := &Rank{world: w, rank: i, Proc: proc, Prof: prof}
		r.Comm = &Comm{world: w, id: 0, rank: i, group: group, r: r}
		w.ranks = append(w.ranks, r)
		w.status[i] = stReady
	}
	if w.par || w.opt {
		w.slots = cfg.MaxParallelRanks
		w.slotHeld = make([]bool, cfg.Procs)
		w.vclock = make([]float64, cfg.Procs)
		for i, r := range w.ranks {
			w.vclock[i] = r.Proc.Now()
		}
	}
	if w.opt {
		w.o = newOptState(w)
	}
	if o := obs.Active(); o != nil {
		id := worldSeq.Add(1)
		w.trk = make([]*obs.Track, cfg.Procs)
		for i := range w.trk {
			//repolint:allow obscapture -- one Track per rank, resolved once here at world construction, then reused for every scheduler event
			w.trk[i] = o.Tracer().Track("mpi", fmt.Sprintf("w%d rank %d", id, i))
		}
		reg := o.Metrics()
		w.met = worldMetrics{
			worlds:        reg.Counter("mpi_worlds_total"),
			grants:        reg.Counter("mpi_token_grants_total"),
			specPub:       reg.Counter("mpi_spec_published_sends_total"),
			specPipe:      reg.Counter("mpi_spec_pipelined_ops_total"),
			specOps:       reg.Counter("mpi_spec_speculated_ops_total"),
			specCommit:    reg.Counter("mpi_spec_committed_ops_total"),
			conflicts:     reg.Counter("mpi_spec_conflicts_total"),
			rollbacks:     reg.Counter("mpi_spec_rollbacks_total"),
			windowStalls:  reg.Counter("mpi_spec_window_stalls_total"),
			windowGrows:   reg.Counter("mpi_spec_window_grows_total"),
			windowShrinks: reg.Counter("mpi_spec_window_shrinks_total"),
			collHits:      reg.Counter("mpi_spec_coll_hits_total"),
			collRollbacks: reg.Counter("mpi_spec_coll_rollbacks_total"),
			reexecUS:      reg.Histogram("mpi_spec_reexecuted_us", obs.LatencyBucketsUS),
		}
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.cfg.Procs }

// Config returns the world's configuration.
func (w *World) Config() WorldConfig { return w.cfg }

// Ranks returns the per-rank contexts (valid after Run for inspection).
func (w *World) Ranks() []*Rank { return w.ranks }

// Profiles returns the per-rank TAU profiles, in rank order.
func (w *World) Profiles() []*tau.Profile {
	out := make([]*tau.Profile, len(w.ranks))
	for i, r := range w.ranks {
		out[i] = r.Prof
	}
	return out
}

// Procs returns the per-rank platform processors, in rank order.
func (w *World) Procs() []*platform.Proc {
	out := make([]*platform.Proc, len(w.ranks))
	for i, r := range w.ranks {
		out[i] = r.Proc
	}
	return out
}

// RandomDraws returns how many random numbers the world has drawn: every
// rank's platform stream (point-to-point noise and anything the rank body
// draws) plus the shared collective-noise stream. Call it after Run. Zero
// means the world's seed reached none of its results, so a world that
// differs only in its seed would reproduce them exactly.
func (w *World) RandomDraws() uint64 {
	w.mu.Lock()
	n := w.rngSrc.Steps()
	w.mu.Unlock()
	for _, r := range w.ranks {
		n += r.Proc.RNGDraws()
	}
	return n
}

// abortPanic is the sentinel thrown to unwind ranks parked inside MPI when
// the world aborts (deadlock or another rank's panic). It carries no
// diagnostic value of its own and never masks the original error.
type abortPanic struct{}

// Run executes body once per rank (SCMD) and blocks until every rank
// finishes. It returns the first rank panic as an error, or a deadlock
// error if all live ranks blocked on unsatisfiable conditions. A World can
// only be Run once.
//
// Under the serial scheduler each goroutine waits for the execution token
// before entering body. Under ConservativeParallel every goroutine starts
// immediately (subject to the MaxParallelRanks cap) and synchronizes with
// the replayed token order only at communication events; a finishing rank
// commits its buffered sends at its token turn before going Done, exactly
// where the serial schedule would have placed them. Under
// OptimisticParallel goroutines also start immediately, publish sends as
// they happen, and speculate past order-sensitive receives; the commit
// automaton validates the recorded event streams against the serial order
// and finishing ranks simply mark their streams complete — the automaton
// commits their tails in serial order.
func (w *World) Run(body func(*Rank)) error {
	var wg sync.WaitGroup
	for i := 0; i < w.cfg.Procs; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				e := recover()
				w.mu.Lock()
				if _, isAbort := e.(abortPanic); e != nil && !isAbort {
					w.panics[rank] = fmt.Errorf("mpi: rank %d panicked: %v\n%s", rank, e, debug.Stack())
					w.aborted = true
				}
				w.status[rank] = stDone
				w.blocked[rank] = nil
				w.releaseSlotLocked(rank)
				if w.opt {
					w.o.finished[rank] = true
					w.o.parked[rank] = false
					w.cond.Broadcast()
				} else {
					w.advanceLocked()
				}
				w.mu.Unlock()
			}()
			if w.opt {
				func() {
					w.mu.Lock()
					defer w.mu.Unlock()
					if !w.acquireSlotLocked(rank) {
						panic(abortPanic{})
					}
				}()
				body(w.ranks[rank])
			} else if w.par {
				func() {
					w.mu.Lock()
					defer w.mu.Unlock()
					if !w.acquireSlotLocked(rank) {
						panic(abortPanic{})
					}
				}()
				body(w.ranks[rank])
				// Ordered completion: wait for the commit token and flush
				// any still-buffered sends before the deferred Done.
				w.lockShared(rank)
				w.mu.Unlock()
			} else {
				func() {
					w.mu.Lock()
					defer w.mu.Unlock()
					w.waitForTurnLocked(rank)
				}()
				body(w.ranks[rank])
			}
		}(i)
	}
	if !w.opt {
		w.mu.Lock()
		w.advanceLocked()
		w.mu.Unlock()
	}
	wg.Wait()
	if w.opt {
		// Drain the commit automaton so the committed world state (mailbox
		// residue, communicator ids, telemetry) reflects the full serial
		// order even though every rank has already returned.
		w.mu.Lock()
		if !w.aborted {
			for w.autoStepLocked() {
			}
		}
		w.mu.Unlock()
	}
	if w.met.worlds != nil {
		// Fold the run's speculation telemetry into the registry, so
		// conflict/rollback rates are visible without a deadlock dump.
		w.met.worlds.Inc()
		if w.opt {
			s := w.SpecStats()
			w.met.specPub.Add(s.PublishedSends)
			w.met.specPipe.Add(s.PipelinedOps)
			w.met.specOps.Add(s.SpeculatedOps)
			w.met.specCommit.Add(s.CommittedOps)
			w.met.conflicts.Add(s.Conflicts)
			w.met.rollbacks.Add(s.Rollbacks)
			w.met.windowStalls.Add(s.WindowStalls)
			w.met.windowGrows.Add(s.WindowGrows)
			w.met.windowShrinks.Add(s.WindowShrinks)
			w.met.collHits.Add(s.SpecCollHits)
			w.met.collRollbacks.Add(s.SpecCollRollbacks)
			w.met.reexecUS.Observe(s.ReexecutedUS)
		}
	}
	for _, err := range w.panics {
		if err != nil {
			return err
		}
	}
	return nil
}

// waitForTurnLocked blocks until the scheduler grants this rank the token.
func (w *World) waitForTurnLocked(rank int) {
	for w.current != rank {
		if w.aborted {
			panic(abortPanic{})
		}
		w.cond.Wait()
	}
	w.status[rank] = stRunning
}

// lockShared acquires the world's shared state for an MPI operation that
// reads or writes order-sensitive global state (mailboxes, collectives,
// communicator ids, the collective-cost RNG). In serial mode the calling
// rank already holds the execution token, so this is just the mutex. In
// ConservativeParallel mode the rank additionally waits for the commit
// token — its turn in the replayed serial order — and flushes its buffered
// sends, so every shared mutation happens in exactly the order the serial
// scheduler would produce. Callers must pair it with a deferred
// w.mu.Unlock immediately after it returns.
func (w *World) lockShared(rank int) {
	w.mu.Lock()
	if !w.par {
		return
	}
	if w.current != rank {
		w.releaseSlotLocked(rank)
		for w.current != rank {
			if w.aborted {
				w.mu.Unlock()
				panic(abortPanic{})
			}
			w.cond.Wait()
		}
		if !w.acquireSlotLocked(rank) {
			w.mu.Unlock()
			panic(abortPanic{})
		}
	}
	w.status[rank] = stRunning
	w.flushSendsLocked(rank)
}

// flushSendsLocked commits the rank's buffered sends to the world
// mailboxes in program order. Caller must hold w.mu and, in parallel mode,
// the commit token.
func (w *World) flushSendsLocked(rank int) {
	r := w.ranks[rank]
	for _, ps := range r.pending {
		w.enqueueLocked(ps.key, ps.msg)
	}
	r.pending = r.pending[:0]
}

// acquireSlotLocked claims a compute slot under the MaxParallelRanks cap,
// waiting while the cap is saturated. It reports false when the world
// aborted while waiting. A no-op (true) in serial mode or when the rank
// already holds a slot.
func (w *World) acquireSlotLocked(rank int) bool {
	if !(w.par || w.opt) || w.slotHeld[rank] {
		return !w.aborted
	}
	for w.slots > 0 && w.active >= w.slots {
		if w.aborted {
			return false
		}
		w.cond.Wait()
	}
	if w.aborted {
		return false
	}
	w.active++
	w.slotHeld[rank] = true
	return true
}

// releaseSlotLocked returns the rank's compute slot, waking slot waiters.
func (w *World) releaseSlotLocked(rank int) {
	if !(w.par || w.opt) || !w.slotHeld[rank] {
		return
	}
	w.active--
	w.slotHeld[rank] = false
	w.cond.Broadcast()
}

// schedClockLocked returns rank r's virtual clock as the scheduler may
// safely observe it. In parallel mode a rank that is neither blocked nor
// done may be advancing its clock concurrently without the lock, so the
// scheduler reads the value committed at the rank's last scheduling point
// instead — which is exactly the clock the serial scheduler would see.
func (w *World) schedClockLocked(r int) float64 {
	if w.opt {
		// Only consulted for diagnostics (deadlock report, lookahead
		// horizon): at that point every live rank is parked, so its Proc is
		// quiescent and safe to read under the lock.
		return w.ranks[r].Proc.Now()
	}
	if w.par {
		switch w.status[r] {
		case stBlocked, stDone:
			return w.ranks[r].Proc.Now()
		}
		return w.vclock[r]
	}
	return w.ranks[r].Proc.Now()
}

// blockOn parks the running rank until pred() holds, handing the token to
// the runnable rank with the smallest virtual clock meanwhile. on
// describes the awaited communication for deadlock diagnostics.
// Caller must hold w.mu and be the current rank.
func (w *World) blockOn(rank int, on blockDesc, pred func() bool) {
	if pred() {
		return
	}
	if w.par {
		w.vclock[rank] = w.ranks[rank].Proc.Now()
		w.releaseSlotLocked(rank)
	}
	w.status[rank] = stBlocked
	w.blocked[rank] = pred
	w.blockedOn[rank] = on
	w.advanceLocked()
	w.waitForTurnLocked(rank)
	if w.par && !w.acquireSlotLocked(rank) {
		panic(abortPanic{})
	}
	w.blocked[rank] = nil
	w.blockedOn[rank] = blockDesc{}
}

// advanceLocked promotes blocked ranks whose predicates now hold and grants
// the token to the ready rank with the smallest (clock, rank). If no rank
// can run and not all are done, the world is deadlocked: every parked rank
// is woken into a panic carrying the per-rank state dump and the pending
// lookahead horizon.
func (w *World) advanceLocked() {
	if w.aborted {
		w.current = -1
		w.cond.Broadcast()
		return
	}
	for r := range w.status {
		if w.status[r] == stBlocked && w.blocked[r]() {
			w.status[r] = stReady
		}
	}
	next, best := -1, 0.0
	allDone := true
	for r := range w.status {
		switch w.status[r] {
		case stReady:
			allDone = false
			t := w.schedClockLocked(r)
			if next == -1 || t < best {
				next, best = r, t
			}
		case stBlocked, stRunning:
			allDone = false
		}
	}
	w.current = next
	if next != -1 {
		w.met.grants.Inc()
	}
	if next == -1 && !allDone {
		// Every live rank is blocked: deadlock. Abort the world so the
		// parked goroutines panic with diagnostics instead of hanging.
		w.aborted = true
		report := w.deadlockReportLocked()
		for r := range w.status {
			if w.status[r] == stBlocked {
				w.panics[r] = fmt.Errorf("mpi: deadlock: rank %d blocked at t=%.3fus in %s with no matching communication\n%s",
					r, w.ranks[r].Proc.Now(), w.blockedOn[r], report)
			}
		}
	}
	w.cond.Broadcast()
}

// deadlockReportLocked renders the per-rank state dump plus the pending
// lookahead horizon that advanceLocked attaches to deadlock errors.
func (w *World) deadlockReportLocked() string {
	var sb strings.Builder
	sb.WriteString("world state at deadlock:\n")
	for r := range w.status {
		t := w.schedClockLocked(r)
		switch w.status[r] {
		case stDone:
			fmt.Fprintf(&sb, "  rank %d: done at t=%.3fus\n", r, t)
		case stBlocked:
			fmt.Fprintf(&sb, "  rank %d: blocked at t=%.3fus in %s\n", r, t, w.blockedOn[r])
		default:
			fmt.Fprintf(&sb, "  rank %d: runnable at t=%.3fus\n", r, t)
		}
	}
	if earliest, n := w.pendingArrivalLocked(); n > 0 {
		fmt.Fprintf(&sb, "  %d undelivered message(s), earliest arrival t=%.3fus (none match a posted receive)\n", n, earliest)
	} else {
		sb.WriteString("  no messages in flight\n")
	}
	if h := w.lookaheadHorizonLocked(); !math.IsInf(h, 1) {
		fmt.Fprintf(&sb, "  pending lookahead horizon: t=%.3fus (min of queued arrivals and live clocks + %.3fus net latency)\n",
			h, w.cfg.Net.LatencyUS)
	}
	if w.o != nil {
		s := w.o.stats
		fmt.Fprintf(&sb, "  optimistic speculation: %d sends published, %d ops pipelined, %d speculated, %d committed, %d conflicts, %d rollbacks, %.3fus re-executed, %d window stalls\n",
			s.PublishedSends, s.PipelinedOps, s.SpeculatedOps, s.CommittedOps, s.Conflicts, s.Rollbacks, s.ReexecutedUS, s.WindowStalls)
		fmt.Fprintf(&sb, "  speculation window: %d..%d observed (%d grows, %d shrinks); speculative collectives: %d hits, %d rollbacks\n",
			s.WindowMin, s.WindowMax, s.WindowGrows, s.WindowShrinks, s.SpecCollHits, s.SpecCollRollbacks)
	}
	return sb.String()
}

// pendingArrivalLocked returns the earliest virtual arrival time over all
// queued (undelivered) messages and how many are queued.
func (w *World) pendingArrivalLocked() (earliest float64, n int) {
	earliest = math.Inf(1)
	for _, box := range w.mailboxes {
		for _, m := range box {
			n++
			if m.arrive < earliest {
				earliest = m.arrive
			}
		}
	}
	if w.o != nil {
		// Published messages whose send has not yet committed are in flight
		// too; committed ones already appear in the mailboxes above.
		for _, box := range w.o.pub {
			for _, m := range box {
				if m.seq != 0 {
					continue
				}
				n++
				if m.arrive < earliest {
					earliest = m.arrive
				}
			}
		}
	}
	return earliest, n
}

// lookaheadHorizonLocked computes the conservative lookahead horizon: the
// earliest virtual time at which any parked rank could observe new input.
// It is the minimum over (a) queued message arrival times and (b) every
// live rank's committed clock plus the network model's minimum
// point-to-point latency — no rank can cause an event earlier than that.
// Ranks whose next interaction lies beyond this horizon are the ones the
// parallel scheduler lets run ahead concurrently.
func (w *World) lookaheadHorizonLocked() float64 {
	h, _ := w.pendingArrivalLocked()
	for r := range w.status {
		if w.status[r] == stDone {
			continue
		}
		if t := w.schedClockLocked(r) + w.cfg.Net.LatencyUS; t < h {
			h = t
		}
	}
	return h
}

// enqueueLocked places a message in a mailbox.
func (w *World) enqueueLocked(key mailKey, m *message) {
	w.seq++
	m.seq = w.seq
	w.mailboxes[key] = append(w.mailboxes[key], m)
}

// matchLocked removes and returns the first message matching (src, tag) in
// FIFO order, or nil.
func (w *World) matchLocked(key mailKey, src, tag int) *message {
	box := w.mailboxes[key]
	for i, m := range box {
		if (src == AnySource || m.src == src) && (tag == AnyTag || m.tag == tag) {
			w.mailboxes[key] = append(box[:i:i], box[i+1:]...)
			return m
		}
	}
	return nil
}

// hasMatchLocked reports whether a matching message is queued.
func (w *World) hasMatchLocked(key mailKey, src, tag int) bool {
	for _, m := range w.mailboxes[key] {
		if (src == AnySource || m.src == src) && (tag == AnyTag || m.tag == tag) {
			return true
		}
	}
	return false
}
