// Package platform provides the simulated execution platform underlying the
// reproduction: a per-rank virtual clock, a CPU cost model, a virtual memory
// allocator, and deterministic per-rank random state.
//
// The paper's measurements were taken on a cluster of dual 2.8 GHz Pentium
// Xeons with 512 kB L2 caches. This repository replaces the physical machine
// with a model: every kernel performs its real floating-point work on real Go
// slices, then charges the platform for that work (FLOPs plus the cache
// behaviour of its access streams). TAU timers read the resulting virtual
// clock, so all reported times are deterministic virtual microseconds.
package platform

import (
	"fmt"
	"math/rand"

	"repro/internal/cache"
)

// Time is virtual time in microseconds.
type Time = float64

// CPUModel converts abstract work (FLOPs, cache hits and misses) into cycles
// and cycles into virtual microseconds.
type CPUModel struct {
	// ClockGHz is the core clock; the paper's testbed ran at 2.8 GHz.
	ClockGHz float64
	// CyclesPerFlop is the average cost of one floating-point operation
	// when its operands are already in registers or L1.
	CyclesPerFlop float64
	// HitCycles is the average cost of a data access that hits in the
	// simulated (L2) cache, folding in the L1 behaviour we do not model.
	HitCycles float64
	// MissCycles is the main-memory penalty for a cache miss.
	MissCycles float64
	// SeqMissFactor discounts miss penalties for sequential streams, which
	// hardware prefetchers largely hide. Strided streams pay full price.
	SeqMissFactor float64
	// CallCycles is the fixed overhead of a (virtual) method invocation
	// through a CCA port.
	CallCycles float64
}

// XeonModel returns the CPU model calibrated against the paper's testbed
// (2.8 GHz Pentium 4 Xeon class machine).
func XeonModel() CPUModel {
	return CPUModel{
		ClockGHz:      2.8,
		CyclesPerFlop: 2.0,
		HitCycles:     4.0,
		MissCycles:    140.0, // effective latency with ~2 misses in flight
		SeqMissFactor: 0.40,
		CallCycles:    40.0,
	}
}

// CyclesToMicros converts a cycle count to virtual microseconds.
func (m CPUModel) CyclesToMicros(cycles float64) Time {
	return cycles / (m.ClockGHz * 1e3)
}

// StreamCycles returns the cycle cost of a stream with the given hit and
// miss counts. Sequential streams receive the prefetch discount.
func (m CPUModel) StreamCycles(hits, misses uint64, sequential bool) float64 {
	missCost := m.MissCycles
	if sequential {
		missCost *= m.SeqMissFactor
	}
	return float64(hits)*m.HitCycles + float64(misses)*missCost
}

// Counters holds the PAPI-style event counts accumulated by a Proc.
type Counters struct {
	// FPOps is the number of floating-point operations (PAPI_FP_OPS).
	FPOps uint64
	// L2DCA is the number of L2 data-cache accesses (PAPI_L2_DCA).
	L2DCA uint64
	// L2DCM is the number of L2 data-cache misses (PAPI_L2_DCM).
	L2DCM uint64
}

// Proc is one simulated processor: the execution context of a single SCMD
// rank. It owns a virtual clock, a private cache, a virtual address space,
// and a deterministic random stream. A Proc is not safe for concurrent use;
// each rank goroutine owns exactly one.
type Proc struct {
	rank  int
	cpu   CPUModel
	cache *cache.Cache
	rng   *rand.Rand
	src   *CountingSource

	clock    Time
	nextAddr uint64
	fpOps    uint64
}

// CountingSource wraps the standard random source and counts how many times
// it has stepped. Because the generator is deterministic, the step count is
// a complete checkpoint of the stream: rewinding rebuilds the source from
// its seed and replays the recorded number of steps. Both Int63 and Uint64
// advance the underlying generator exactly once, so replaying with Uint64
// reproduces the state regardless of which method originally drew.
type CountingSource struct {
	seed  int64
	src   rand.Source64
	steps uint64
}

// NewCountingSource returns a counting source over rand.NewSource(seed):
// rand.New draws exactly the stream it would draw from the bare source.
func NewCountingSource(seed int64) *CountingSource {
	return &CountingSource{seed: seed, src: rand.NewSource(seed).(rand.Source64)}
}

// Steps returns how many times the source has stepped.
func (s *CountingSource) Steps() uint64 { return s.steps }

// Int63 implements rand.Source, counting the step.
func (s *CountingSource) Int63() int64 {
	s.steps++
	return s.src.Int63()
}

// Uint64 implements rand.Source64, counting the step.
func (s *CountingSource) Uint64() uint64 {
	s.steps++
	return s.src.Uint64()
}

// Seed implements rand.Source, restarting the count.
func (s *CountingSource) Seed(seed int64) {
	s.seed = seed
	s.steps = 0
	s.src.Seed(seed)
}

// rewindTo restores the source to the state it had after n steps. n must not
// exceed the current step count: a random stream can be rewound, never
// fast-forwarded past draws that have not happened.
func (s *CountingSource) rewindTo(n uint64) {
	if n > s.steps {
		panic(fmt.Sprintf("platform: cannot advance RNG checkpoint from %d to %d steps", s.steps, n))
	}
	if n == s.steps {
		return
	}
	s.src = rand.NewSource(s.seed).(rand.Source64)
	for s.steps = 0; s.steps < n; s.steps++ {
		s.src.Uint64()
	}
}

// ProcState is a checkpoint of a Proc's mutable rank-local state: the
// virtual clock, the heap cursor, the FLOP counter, the random stream (as a
// draw count) and the cache counters. Cache *contents* (resident lines and
// LRU order) are not included — use cache.Cache.Checkpoint alongside when
// the checkpointed region touches memory. The optimistic rank scheduler
// checkpoints Procs around speculative MPI operations, which never access
// the cache, so the cheap state here is exactly what rollback must restore.
type ProcState struct {
	Clock      Time
	NextAddr   uint64
	FPOps      uint64
	RNGSteps   uint64
	CacheStats cache.Stats
}

// Checkpoint captures the Proc's mutable state for a later Restore.
func (p *Proc) Checkpoint() ProcState {
	return ProcState{
		Clock:      p.clock,
		NextAddr:   p.nextAddr,
		FPOps:      p.fpOps,
		RNGSteps:   p.src.steps,
		CacheStats: p.cache.Stats(),
	}
}

// Restore rewinds the Proc to a previously captured checkpoint: clock, heap
// cursor, FLOP counter, cache counters, and the random stream (replayed
// deterministically to the recorded draw count, so future draws are
// bit-identical to a run that never went past the checkpoint). It panics if
// the checkpoint is from the future (more RNG draws than have happened).
func (p *Proc) Restore(s ProcState) {
	p.clock = s.Clock
	p.nextAddr = s.NextAddr
	p.fpOps = s.FPOps
	p.src.rewindTo(s.RNGSteps)
	p.cache.RestoreStats(s.CacheStats)
}

// lineAlign is the alignment of virtual allocations; matching the cache line
// keeps stream simulation exact.
const lineAlign = 64

// baseAddr is where the virtual heap starts; nonzero so that address 0 can
// mean "no allocation".
const baseAddr = 1 << 20

// NewProc creates the execution context for one rank.
// seed disambiguates the random streams of different ranks and runs.
func NewProc(rank int, cpu CPUModel, cacheCfg cache.Config, seed int64) *Proc {
	src := NewCountingSource(seed ^ int64(rank)*0x5E3779B97F4A7C15)
	return &Proc{
		rank:     rank,
		cpu:      cpu,
		cache:    cache.New(cacheCfg),
		rng:      rand.New(src),
		src:      src,
		nextAddr: baseAddr,
	}
}

// Rank returns the SCMD rank this Proc simulates.
func (p *Proc) Rank() int { return p.rank }

// CPU returns the processor cost model.
func (p *Proc) CPU() CPUModel { return p.cpu }

// Cache exposes the rank-private cache simulator.
func (p *Proc) Cache() *cache.Cache { return p.cache }

// RNG returns the rank's deterministic random stream.
func (p *Proc) RNG() *rand.Rand { return p.rng }

// RNGDraws returns how many times the rank's random stream has stepped.
// Zero means nothing the rank simulated depended on its seed.
func (p *Proc) RNGDraws() uint64 { return p.src.Steps() }

// Now returns the current virtual time in microseconds.
func (p *Proc) Now() Time { return p.clock }

// Advance moves the virtual clock forward by d microseconds.
// Negative advances are a programming error and panic.
func (p *Proc) Advance(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("platform: negative time advance %g on rank %d", d, p.rank))
	}
	p.clock += d
}

// AdvanceCycles moves the clock forward by a cycle count.
func (p *Proc) AdvanceCycles(cycles float64) {
	p.Advance(p.cpu.CyclesToMicros(cycles))
}

// SyncTo moves the clock forward to t if t is in the future; it never moves
// the clock backward. It returns the (possibly unchanged) clock value.
func (p *Proc) SyncTo(t Time) Time {
	if t > p.clock {
		p.clock = t
	}
	return p.clock
}

// Alloc reserves n bytes of virtual address space, line-aligned, and returns
// the base address. The virtual heap is append-only: the simulation never
// frees, which keeps addresses unique for the cache model.
func (p *Proc) Alloc(n int) uint64 {
	if n < 0 {
		panic("platform: negative allocation")
	}
	addr := p.nextAddr
	sz := (uint64(n) + lineAlign - 1) &^ (lineAlign - 1)
	p.nextAddr += sz + lineAlign // guard line between allocations
	return addr
}

// ChargeFlops accounts n floating-point operations: the counter is bumped
// and the clock advanced per the CPU model.
func (p *Proc) ChargeFlops(n int) {
	if n <= 0 {
		return
	}
	p.fpOps += uint64(n)
	p.AdvanceCycles(float64(n) * p.cpu.CyclesPerFlop)
}

// ChargeStream simulates a memory access stream of n elements starting at
// base with the given byte stride, charging the clock for hits and misses.
// Streams whose stride is within one cache line are treated as sequential
// (prefetch-friendly).
func (p *Proc) ChargeStream(base uint64, n, strideBytes int) (hits, misses uint64) {
	return p.ChargeStreamHinted(base, n, strideBytes, false)
}

// ChargeStreamHinted is ChargeStream with an explicit latency-overlap hint:
// kernels whose long independent arithmetic chains hide memory latency
// (the paper's EFMFlux, whose timings are nearly mode-independent, Fig. 8)
// charge even strided misses at the prefetched rate.
func (p *Proc) ChargeStreamHinted(base uint64, n, strideBytes int, overlapped bool) (hits, misses uint64) {
	if n <= 0 {
		return 0, 0
	}
	hits, misses = p.cache.AccessRange(base, n, strideBytes)
	seq := overlapped || strideBytes <= p.cache.LineBytes()
	p.AdvanceCycles(p.cpu.StreamCycles(hits, misses, seq))
	return hits, misses
}

// ChargeCall accounts the fixed overhead of one port-mediated method call.
func (p *Proc) ChargeCall() {
	p.AdvanceCycles(p.cpu.CallCycles)
}

// Counters returns a snapshot of the PAPI-style event counters.
func (p *Proc) Counters() Counters {
	st := p.cache.Stats()
	return Counters{FPOps: p.fpOps, L2DCA: st.Accesses, L2DCM: st.Misses}
}
