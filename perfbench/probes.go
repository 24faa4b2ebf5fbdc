package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/cache"
	"repro/internal/cca"
	"repro/internal/components"
	"repro/internal/euler"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/results"
	"repro/internal/tau"
)

// This file holds the traced run's layer probes: direct calls into one
// layer's public functions on the shapes a workload uses, timed from
// outside. Iteration counts are fixed, so every count a probe reports is
// exact.

// shape is one patch geometry a workload's kernels run on, with the
// simulated cache they charge.
type shape struct {
	nx, ny int
	cache  cache.Config
}

// probeCells bounds the kernel work per shape: about this many cells are
// swept per kernel.
const probeCells = 200_000

// squareShape is the roughly square patch of q cells (the sweep's aspect
// 1.0 shape).
func squareShape(q int, cacheKB int) shape {
	ny := int(math.Sqrt(float64(q)))
	cfg := cache.XeonL2()
	cfg.SizeBytes = cacheKB * 1024
	return shape{nx: q / ny, ny: ny, cache: cfg}
}

// dirs is the fixed sweep order; the simulated cache's counts depend on it.
var dirs = []euler.Dir{euler.X, euler.Y}

// kernelInputs is one shape's initialized patch and edge fields.
type kernelInputs struct {
	proc   *platform.Proc
	b      *euler.Block
	fields map[euler.Dir][3]*euler.EdgeField
}

func newKernelInputs(proc *platform.Proc, s shape) kernelInputs {
	b := euler.NewBlock(proc, s.nx, s.ny, 2)
	p := euler.DefaultShockInterface()
	p.InitBlock(b, 0, 0, p.Lx/float64(s.nx), p.Ly/float64(s.ny))
	b.FillBoundary(true, true, true, true)
	in := kernelInputs{proc: proc, b: b, fields: map[euler.Dir][3]*euler.EdgeField{}}
	for _, dir := range dirs {
		in.fields[dir] = [3]*euler.EdgeField{
			euler.NewEdgeField(proc, s.nx, s.ny, dir),
			euler.NewEdgeField(proc, s.nx, s.ny, dir),
			euler.NewEdgeField(proc, s.nx, s.ny, dir),
		}
	}
	return in
}

// probeKernels times States and GodunovFlux directly on every shape and
// records the simulated hardware counters around the calls.
func probeKernels(t *tracer, shapes []shape) {
	var statesNS, statesCells, godNS, godFaces float64
	for _, s := range shapes {
		proc := platform.NewProc(0, platform.XeonModel(), s.cache, 1)
		in := newKernelInputs(proc, s)
		reps := max(1, probeCells/(s.nx*s.ny))
		c0 := proc.Counters()
		start := time.Now()
		for r := 0; r < reps; r++ {
			for _, dir := range dirs {
				f := in.fields[dir]
				euler.States(proc, in.b, dir, f[0], f[1])
			}
		}
		statesNS += float64(time.Since(start).Nanoseconds())
		statesCells += float64(reps * 2 * s.nx * s.ny)
		iters := 0
		start = time.Now()
		for r := 0; r < reps; r++ {
			for _, dir := range dirs {
				f := in.fields[dir]
				iters += euler.GodunovFlux(proc, f[0], f[1], f[2])
				godFaces += float64(f[2].Len())
			}
		}
		godNS += float64(time.Since(start).Nanoseconds())
		c1 := proc.Counters()
		t.count("euler.riemann_iters", float64(iters))
		t.count("euler.flops", float64(c1.FPOps-c0.FPOps))
		t.count("cache.accesses", float64(c1.L2DCA-c0.L2DCA))
		t.count("cache.misses", float64(c1.L2DCM-c0.L2DCM))
	}
	t.addValue("euler.states_ns_per_cell", statesNS/statesCells)
	t.addValue("euler.godunov_ns_per_face", godNS/godFaces)
	t.addValue("euler.kernel_s", (statesNS+godNS)/1e9)
}

// probeCache times cache.AccessRange directly: a sequential walk and a
// row-pitch strided walk over each shape's working set.
func probeCache(t *tracer, shapes []shape) {
	var seqNS, strNS, n float64
	for _, s := range shapes {
		c := cache.New(s.cache)
		cells := s.nx * s.ny
		reps := max(1, probeCells/cells)
		start := time.Now()
		for r := 0; r < reps; r++ {
			c.AccessRange(0, cells, 8)
		}
		seqNS += float64(time.Since(start).Nanoseconds())
		start = time.Now()
		for r := 0; r < reps; r++ {
			c.AccessRange(0, cells, 8*(s.nx+4))
		}
		strNS += float64(time.Since(start).Nanoseconds())
		n += float64(reps * cells)
	}
	t.addValue("cache.ns_per_access_seq", seqNS/n)
	t.addValue("cache.ns_per_access_strided", strNS/n)
}

// probeScript assembles the States and GodunovFlux proxies with the PMM
// components, as the kernel sweeps do.
const probeScript = `
instantiate TauMeasurement tau0
instantiate Mastermind mastermind0
instantiate States states0
instantiate StatesProxy sc_proxy
instantiate GodunovFlux flux0
instantiate FluxProxy g_proxy
connect mastermind0 measurement tau0 measurement
connect sc_proxy target states0 states
connect sc_proxy monitor mastermind0 monitor
connect g_proxy target flux0 flux
connect g_proxy monitor mastermind0 monitor
`

// proxyReps is how many proxied and direct calls the overhead probe makes.
const proxyReps = 1000

// probeProxy measures the TAU/CCA bookkeeping a proxied port call adds:
// StatesPort and FluxPort calls through their proxies against the same
// kernels called directly on identical inputs, interleaved, on a 1-rank
// world. The figure is per port call. It also times a bare tau.Profile
// Start/Stop pair.
func probeProxy(t *tracer, s shape) error {
	cfg := mpi.DefaultConfig()
	cfg.Procs = 1
	cfg.Cache = s.cache
	var diffs []float64
	err := cca.RunSCMD(mpi.NewWorld(cfg), func(f *cca.Framework, r *mpi.Rank) error {
		components.RegisterClasses(f, components.DefaultAppConfig(), &components.App{Framework: f})
		if err := f.RunScript(probeScript); err != nil {
			return err
		}
		sp, err := f.LookupProvides("sc_proxy", "states")
		if err != nil {
			return err
		}
		fp, err := f.LookupProvides("g_proxy", "flux")
		if err != nil {
			return err
		}
		states, flux := sp.(components.StatesPort), fp.(components.FluxPort)
		in := newKernelInputs(r.Proc, s)
		qL, qR, fl := in.fields[euler.X][0], in.fields[euler.X][1], in.fields[euler.X][2]
		direct := func() time.Duration {
			start := time.Now()
			euler.States(r.Proc, in.b, euler.X, qL, qR)
			euler.GodunovFlux(r.Proc, qL, qR, fl)
			return time.Since(start)
		}
		proxied := func() time.Duration {
			start := time.Now()
			states.Compute(in.b, euler.X, qL, qR)
			flux.Compute(qL, qR, fl)
			return time.Since(start)
		}
		// Alternate which side goes first, and keep the median difference,
		// so order effects cancel and a GC pause in one call does not count.
		for i := 0; i < proxyReps; i++ {
			var d, p time.Duration
			if i%2 == 0 {
				d, p = direct(), proxied()
			} else {
				p, d = proxied(), direct()
			}
			diffs = append(diffs, float64((p-d).Nanoseconds())/2)
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.addValue("tau_cca.proxy_overhead_ns", median(diffs))

	const pairs = 200_000
	prof := tau.NewProfile(func() float64 { return 0 })
	start := time.Now()
	for i := 0; i < pairs; i++ {
		prof.Start("probe", "PROBE")
		prof.Stop("probe")
	}
	t.addValue("tau_cca.start_stop_ns", float64(time.Since(start).Nanoseconds())/pairs)
	return nil
}

// probeRows decodes every row shard with results.ReadRowsFile.
func probeRows(t *tracer, files []string) error {
	var bytes float64
	start := time.Now()
	for _, f := range files {
		if _, err := results.ReadRowsFile(f); err != nil {
			return err
		}
		st, err := os.Stat(f)
		if err != nil {
			return err
		}
		bytes += float64(st.Size())
	}
	t.addTime("rows.read_s", time.Since(start))
	t.count("rows.read_bytes", bytes)
	return nil
}

// probeModes runs the same case-study world under each scheduler mode that
// still parses, timing each and checking its outputs against the
// reference. A mode that no longer parses is skipped and reported absent.
func probeModes(t *tracer, e *env, seed int64) error {
	for _, mode := range []string{"serial", "par", "opt"} {
		cfg, err := caseConfig(seed, mode, e.procs)
		if err != nil {
			continue
		}
		start := time.Now()
		res, err := harness.RunCaseStudy(cfg)
		if err != nil {
			return fmt.Errorf("case study under %s: %w", mode, err)
		}
		t.addTime("mpi.world_s."+mode, time.Since(start))
		outs, err := renderCase(res)
		if err != nil {
			return err
		}
		for _, name := range sortedKeys(outs) {
			if !e.refs.check("casestudy", fmt.Sprintf("seed=%d", seed), name, outs[name]) {
				return fmt.Errorf("case study under %s: %s differs from the reference", mode, name)
			}
		}
	}
	return nil
}
