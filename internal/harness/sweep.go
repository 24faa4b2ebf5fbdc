package harness

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/cca"
	"repro/internal/components"
	"repro/internal/core"
	"repro/internal/euler"
	"repro/internal/mpi"
	"repro/internal/results"
)

// Kernel names the three measured components of Section 5.
type Kernel string

// The measured kernels and their paper proxy labels.
const (
	KernelStates  Kernel = "states"
	KernelGodunov Kernel = "godunov"
	KernelEFM     Kernel = "efm"
)

// proxyName returns the paper's proxy instance label for the kernel.
func (k Kernel) proxyName() string {
	switch k {
	case KernelStates:
		return "sc_proxy"
	case KernelGodunov:
		return "g_proxy"
	default:
		return "efm_proxy"
	}
}

// RecordName returns the monitored method name the sweep produces.
func (k Kernel) RecordName() string { return k.proxyName() + "::compute()" }

// SweepConfig drives the Fig. 4–8 measurement campaign: the kernel is
// invoked through its proxy on arrays of increasing size, alternating the
// sequential (X-derivative) and strided (Y-derivative) modes the way the
// application does.
type SweepConfig struct {
	Kernel Kernel
	// Sizes lists the array sizes Q (cells per patch).
	Sizes []int
	// Reps is the number of invocations per size per mode.
	Reps int
	// World is the simulated machine (3 ranks give the per-processor
	// scatter of Fig. 4).
	World mpi.WorldConfig
}

// DefaultSweep returns the calibrated sweep for a kernel: log-spaced sizes
// up to the paper's ~150k-element arrays.
func DefaultSweep(k Kernel) SweepConfig {
	return SweepConfig{
		Kernel: k,
		Sizes:  LogSizes(1_000, 150_000, 12),
		Reps:   4,
		World:  mpi.DefaultConfig(),
	}
}

// LogSizes returns n log-spaced integer sizes in [lo, hi].
func LogSizes(lo, hi, n int) []int {
	if n < 2 {
		return []int{lo}
	}
	out := make([]int, 0, n)
	ratio := math.Pow(float64(hi)/float64(lo), 1/float64(n-1))
	v := float64(lo)
	for i := 0; i < n; i++ {
		out = append(out, int(v+0.5))
		v *= ratio
	}
	return out
}

// SweepPoint is one proxy-recorded invocation.
type SweepPoint struct {
	Rank   int
	Q      int
	Mode   euler.Dir
	WallUS float64
	// Misses is the invocation's PAPI_L2_DCM delta — the cache information
	// the paper's Section 6 wants folded into the model coefficients.
	Misses float64
}

// SweepResult holds the campaign's samples.
type SweepResult struct {
	Config SweepConfig
	Points []SweepPoint
	// Spec is the world's speculation telemetry, zero unless the sweep ran
	// under the optimistic scheduler. It is carried alongside the points
	// (and through gob checkpoints, which tolerate the added field) but
	// deliberately kept out of Rows(): per-invocation rows must stay
	// byte-identical across scheduler modes, while Spec is wall-clock
	// dependent under opt. SpecRow exposes it as one telemetry row.
	Spec mpi.SpecStats

	// draws is the world's random-number count (mpi.World.RandomDraws).
	// Unexported, so it never enters a gob checkpoint: zero means the
	// sweep's seed reached none of its points.
	draws uint64
}

// sweepAspects are the patch tallness factors the sweep cycles through:
// SAMR patches "can be of any size or aspect ratio" (paper §5), and the
// aspect decides whether a strided sweep's working set fits the cache —
// the source of the growing Fig. 4/5 scatter at large Q.
var sweepAspects = []float64{0.7, 1.0, 1.4, 2.0}

// blockShape picks a patch shape with the requested cell count and
// tallness a (ny ~ a*sqrt(Q)).
func blockShape(q int, a float64) (nx, ny int) {
	ny = int(a * math.Sqrt(float64(q)))
	if ny < 4 {
		ny = 4
	}
	nx = q / ny
	if nx < 4 {
		nx = 4
	}
	return nx, ny
}

// RunSweep measures the kernel through the full PMM stack (component,
// proxy, Mastermind, TAU) on every rank. For the data-dependent flux
// kernels (GodunovFlux's Newton iterations, EFM) patch contents vary per
// rank and repetition — a randomized shock/interface crossing — so they
// show their real variance. A States sweep's cost depends only on the
// patch shape, so its patches keep the problem's fixed crossing and the
// sweep draws no random numbers: its points do not depend on the seed.
func RunSweep(cfg SweepConfig) (*SweepResult, error) {
	if len(cfg.Sizes) == 0 || cfg.Reps <= 0 {
		return nil, fmt.Errorf("harness: empty sweep")
	}
	w := mpi.NewWorld(cfg.World)
	res := &SweepResult{Config: cfg}
	perRank := make([][]SweepPoint, cfg.World.Procs)

	err := cca.RunSCMD(w, func(f *cca.Framework, r *mpi.Rank) error {
		app := &components.App{Framework: f}
		components.RegisterClasses(f, components.DefaultAppConfig(), app)
		script := sweepScript(cfg.Kernel)
		if err := f.RunScript(script); err != nil {
			return err
		}
		statesPort, fluxPort, err := sweepPorts(f, cfg.Kernel)
		if err != nil {
			return err
		}
		proc := r.Proc
		rng := proc.RNG()
		problem := euler.DefaultShockInterface()
		for _, q := range cfg.Sizes {
			for _, aspect := range sweepAspects {
				nx, ny := blockShape(q, aspect)
				// Buffers are allocated once per shape and reused across
				// repetitions, as the application reuses its patch arrays:
				// only the first invocation sees a cold cache.
				b := euler.NewBlock(proc, nx, ny, 2)
				fields := map[euler.Dir][3]*euler.EdgeField{}
				for _, dir := range []euler.Dir{euler.X, euler.Y} {
					fields[dir] = [3]*euler.EdgeField{
						euler.NewEdgeField(proc, nx, ny, dir),
						euler.NewEdgeField(proc, nx, ny, dir),
						euler.NewEdgeField(proc, nx, ny, dir),
					}
				}
				for rep := 0; rep < cfg.Reps; rep++ {
					// Fresh field contents per repetition for the flux
					// kernels: shock and interface at random positions
					// inside the patch.
					p := problem
					if cfg.Kernel != KernelStates {
						p.ShockX = p.Lx * (0.15 + 0.5*rng.Float64())
						p.InterfaceX = p.ShockX + p.Lx*(0.1+0.3*rng.Float64())
					}
					p.InitBlock(b, 0, 0, p.Lx/float64(nx), p.Ly/float64(ny))
					b.FillBoundary(true, true, true, true)
					for _, dir := range []euler.Dir{euler.X, euler.Y} {
						qL, qR, fl := fields[dir][0], fields[dir][1], fields[dir][2]
						if cfg.Kernel == KernelStates {
							statesPort.Compute(b, dir, qL, qR)
							continue
						}
						// Flux kernels consume reconstructed states: build
						// them unmonitored, then invoke the monitored flux
						// proxy.
						euler.States(proc, b, dir, qL, qR)
						fluxPort.Compute(qL, qR, fl)
					}
				}
			}
		}
		// Harvest the proxy record into sweep points.
		rec := app.Core().Record(cfg.Kernel.RecordName())
		if rec == nil {
			return fmt.Errorf("harness: sweep produced no %s record", cfg.Kernel.RecordName())
		}
		dcmIdx := -1
		for i, n := range rec.MetricNames {
			if n == "PAPI_L2_DCM" {
				dcmIdx = i
			}
		}
		var pts []SweepPoint
		for i := range rec.Invocations {
			inv := &rec.Invocations[i]
			qv, _ := inv.Param("Q")
			mode, _ := inv.Param("mode")
			pt := SweepPoint{
				Rank: r.Rank(), Q: int(qv), Mode: euler.Dir(int(mode)), WallUS: inv.WallUS,
			}
			if dcmIdx >= 0 && dcmIdx < len(inv.MetricDeltas) {
				pt.Misses = inv.MetricDeltas[dcmIdx]
			}
			pts = append(pts, pt)
		}
		perRank[r.Rank()] = pts
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, pts := range perRank {
		res.Points = append(res.Points, pts...)
	}
	res.Spec = w.SpecStats()
	res.draws = w.RandomDraws()
	return res, nil
}

// sweepScript assembles just the kernel, its proxy and the PMM components.
func sweepScript(k Kernel) string {
	switch k {
	case KernelStates:
		return `
instantiate TauMeasurement tau0
instantiate Mastermind mastermind0
instantiate States states0
instantiate StatesProxy sc_proxy
connect mastermind0 measurement tau0 measurement
connect sc_proxy target states0 states
connect sc_proxy monitor mastermind0 monitor
`
	case KernelGodunov:
		return `
instantiate TauMeasurement tau0
instantiate Mastermind mastermind0
instantiate GodunovFlux flux0
instantiate FluxProxy g_proxy
connect mastermind0 measurement tau0 measurement
connect g_proxy target flux0 flux
connect g_proxy monitor mastermind0 monitor
`
	default:
		return `
instantiate TauMeasurement tau0
instantiate Mastermind mastermind0
instantiate EFMFlux flux0
instantiate FluxProxy efm_proxy
connect mastermind0 measurement tau0 measurement
connect efm_proxy target flux0 flux
connect efm_proxy monitor mastermind0 monitor
`
	}
}

// sweepPorts resolves the proxy's provides port for direct invocation.
func sweepPorts(f *cca.Framework, k Kernel) (components.StatesPort, components.FluxPort, error) {
	if k == KernelStates {
		p, err := f.LookupProvides("sc_proxy", "states")
		if err != nil {
			return nil, nil, err
		}
		return p.(components.StatesPort), nil, nil
	}
	p, err := f.LookupProvides(k.proxyName(), "flux")
	if err != nil {
		return nil, nil, err
	}
	return nil, p.(components.FluxPort), nil
}

// ModeSeries splits the sweep into per-mode samples.
func (s *SweepResult) ModeSeries(mode euler.Dir) (q, wall []float64) {
	for _, p := range s.Points {
		if p.Mode == mode {
			q = append(q, float64(p.Q))
			wall = append(wall, p.WallUS)
		}
	}
	return q, wall
}

// AllSeries returns every sample regardless of mode (the paper's
// mode-averaged analysis input).
func (s *SweepResult) AllSeries() (q, wall []float64) {
	for _, p := range s.Points {
		q = append(q, float64(p.Q))
		wall = append(wall, p.WallUS)
	}
	return q, wall
}

// RatioPoint is one Fig. 5 sample: strided/sequential mean time at one
// size on one rank.
type RatioPoint struct {
	Rank  int
	Q     int
	Ratio float64
}

// StridedRatios computes the Fig. 5 series.
func (s *SweepResult) StridedRatios() []RatioPoint {
	type key struct{ rank, q int }
	sums := map[key][2]float64{} // [seqSum, strSum]
	counts := map[key][2]int{}
	for _, p := range s.Points {
		k := key{p.Rank, p.Q}
		sv, cv := sums[k], counts[k]
		if p.Mode == euler.X {
			sv[0] += p.WallUS
			cv[0]++
		} else {
			sv[1] += p.WallUS
			cv[1]++
		}
		sums[k], counts[k] = sv, cv
	}
	var out []RatioPoint
	for k, sv := range sums {
		cv := counts[k]
		if cv[0] == 0 || cv[1] == 0 {
			continue
		}
		out = append(out, RatioPoint{
			Rank: k.rank, Q: k.q,
			Ratio: (sv[1] / float64(cv[1])) / (sv[0] / float64(cv[0])),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Q != out[j].Q {
			return out[i].Q < out[j].Q
		}
		return out[i].Rank < out[j].Rank
	})
	return out
}

// Rows returns the sweep's telemetry rows for streaming into a
// results.Sink: one row per recorded invocation, carrying the Fig. 4
// scatter columns plus the invocation's PAPI_L2_DCM delta.
func (s *SweepResult) Rows() []results.Row {
	rows := make([]results.Row, len(s.Points))
	for i, p := range s.Points {
		rows[i] = results.Row{
			results.F("rank", p.Rank), results.F("q", p.Q),
			results.F("mode", p.Mode), results.F("wall_us", p.WallUS),
			results.F("l2_dcm", p.Misses),
		}
	}
	return rows
}

// SpecKey returns the shard key under which a sweep job's speculation
// telemetry row is emitted: a separate key (and therefore CSV shard)
// from the job's per-invocation rows, so the scheduler-equivalence
// byte-comparisons over the measurement shards stay untouched.
func SpecKey(jobKey string) string { return "spec/" + jobKey }

// SpecRow renders the sweep's scheduler telemetry as one results row:
// the speculation counters plus derived conflict/rollback rates — the
// visibility the adaptive-speculation-window work needs in CSV shards.
// Counters are zero under the serial and conservative schedulers.
func (s *SweepResult) SpecRow() results.Row {
	rate := func(n uint64) float64 {
		if s.Spec.SpeculatedOps == 0 {
			return 0
		}
		return float64(n) / float64(s.Spec.SpeculatedOps)
	}
	return results.Row{
		results.F("sched", s.Config.World.Sched.String()),
		results.F("procs", s.Config.World.Procs),
		results.F("published_sends", int64(s.Spec.PublishedSends)),
		results.F("pipelined_ops", int64(s.Spec.PipelinedOps)),
		results.F("speculated_ops", int64(s.Spec.SpeculatedOps)),
		results.F("committed_ops", int64(s.Spec.CommittedOps)),
		results.F("conflicts", int64(s.Spec.Conflicts)),
		results.F("rollbacks", int64(s.Spec.Rollbacks)),
		results.F("window_stalls", int64(s.Spec.WindowStalls)),
		results.F("window_grows", int64(s.Spec.WindowGrows)),
		results.F("window_shrinks", int64(s.Spec.WindowShrinks)),
		results.F("window_min", int64(s.Spec.WindowMin)),
		results.F("window_max", int64(s.Spec.WindowMax)),
		results.F("spec_coll_hits", int64(s.Spec.SpecCollHits)),
		results.F("spec_coll_rollbacks", int64(s.Spec.SpecCollRollbacks)),
		results.F("reexecuted_us", s.Spec.ReexecutedUS),
		results.F("conflict_rate", rate(s.Spec.Conflicts)),
		results.F("rollback_rate", rate(s.Spec.Rollbacks)),
	}
}

// WriteScatterCSV writes the Fig. 4 scatter.
func (s *SweepResult) WriteScatterCSV(w io.Writer) error {
	enc := results.NewCSVEncoder(w)
	if err := enc.Header("rank", "q", "mode", "wall_us"); err != nil {
		return err
	}
	for _, p := range s.Points {
		if err := enc.Encode(results.Row{
			results.F("rank", p.Rank), results.F("q", p.Q),
			results.F("mode", p.Mode), results.F("wall_us", p.WallUS),
		}); err != nil {
			return err
		}
	}
	return nil
}

// WriteRatiosCSV writes the Fig. 5 series.
func (s *SweepResult) WriteRatiosCSV(w io.Writer) error {
	enc := results.NewCSVEncoder(w)
	if err := enc.Header("rank", "q", "strided_over_sequential"); err != nil {
		return err
	}
	for _, p := range s.StridedRatios() {
		if err := enc.Encode(results.Row{
			results.F("rank", p.Rank), results.F("q", p.Q),
			results.F("strided_over_sequential", p.Ratio),
		}); err != nil {
			return err
		}
	}
	return nil
}

// Record re-derives a core.Record-like view for model fitting.
func (s *SweepResult) Record() *core.Record {
	rec := &core.Record{Method: s.Config.Kernel.RecordName()}
	for _, p := range s.Points {
		rec.Invocations = append(rec.Invocations, core.Invocation{
			Params: []core.Param{
				{Name: "Q", Value: float64(p.Q)},
				{Name: "mode", Value: float64(p.Mode)},
			},
			WallUS:    p.WallUS,
			ComputeUS: p.WallUS,
		})
	}
	return rec
}
