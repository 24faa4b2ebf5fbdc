package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/tau"
)

// caseWorkload is the paper's Fig. 3 application (harness.RunCaseStudy on
// DefaultCaseStudy) at 8 ranks under the "par" scheduler, its rank
// concurrency capped at nproc. The runs cycle through a fixed list of
// world seeds, one world per pass; each world is a cold operation and its
// outputs (the Fig. 3 profile, the Fig. 9 CSV, the Fig. 1 PGM and every
// rank's TAU timers and PAPI counters) are checked against the
// references. Running the world and rendering its outputs, as pmmcase
// does, is the pass's timed work. Re-rendering the Fig. 3 profile from
// the finished world's TAU profiles is the warm operation; it runs in a
// phase of its own, outside that work.
type caseWorkload struct {
	env  *env
	seed int64 // pass i runs world seed pick(caseSeeds, seed+i)
	n    int   // passes made
	cfgs map[int64]harness.CaseStudyConfig
}

const (
	caseRanks = 8
	caseSched = "par"
	// caseRenders is how many times each world's profile is re-rendered.
	// It is a sample size, not a model of use (pmmcase renders once):
	// enough that a pass's p99 rests on ten samples above it.
	caseRenders   = 1000
	caseMainTimer = "int main(int, char **)"
)

// caseSeeds is the fixed list of world seeds. References are recorded for
// every one.
var caseSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}

func newCase(e *env) *caseWorkload { return &caseWorkload{env: e} }

// caseConfig builds the case-study world for one seed under the named
// scheduler mode, resolved only through mpi.ParseSchedulerMode.
func caseConfig(seed int64, sched string, procs int) (harness.CaseStudyConfig, error) {
	mode, err := mpi.ParseSchedulerMode(sched)
	if err != nil {
		return harness.CaseStudyConfig{}, err
	}
	cfg := harness.DefaultCaseStudy()
	cfg.World.Procs = caseRanks
	cfg.World.Seed = seed
	cfg.World = cfg.World.WithScheduler(mode, procs)
	return cfg, cfg.World.Validate()
}

// setup builds and validates the world configuration of every seed.
func (w *caseWorkload) setup(_ string, seed int64) error {
	w.seed, w.n = seed, 0
	w.cfgs = map[int64]harness.CaseStudyConfig{}
	for _, ws := range caseSeeds {
		cfg, err := caseConfig(ws, caseSched, w.env.procs)
		if err != nil {
			return err
		}
		w.cfgs[ws] = cfg
	}
	return nil
}

// pass runs the next world of the list, checks its outputs and re-renders
// its profile caseRenders times.
func (w *caseWorkload) pass(_ string, t *tracer) passResult {
	var pr passResult
	ws := pick(caseSeeds, w.seed+int64(w.n))
	w.n++
	key := fmt.Sprintf("seed=%d", ws)
	pr.attempted++
	parent := 0
	if t != nil {
		parent = t.begin("harness", "RunCaseStudy "+key, 0)
	}
	var (
		res  *harness.CaseStudyResult
		outs map[string][]byte
		real time.Duration
		err  error
	)
	pr.work(func() {
		start := time.Now()
		res, err = harness.RunCaseStudy(w.cfgs[ws])
		real = time.Since(start)
		if err == nil {
			outs, err = renderCase(res)
		}
	})
	if t != nil {
		t.end(parent)
	}
	if err != nil {
		pr.fail(err)
		return pr
	}
	pr.cold = append(pr.cold, real)
	if t != nil {
		caseCounts(t, res, real)
	}
	for _, name := range sortedKeys(outs) {
		pr.attempted++
		if !w.env.refs.check("casestudy", key, name, outs[name]) {
			pr.fail(fmt.Errorf("casestudy %s: %s digest differs from the reference", key, name))
		}
	}
	renders := w.render(res, len(outs["fig3.txt"]), &pr)
	for _, body := range renders {
		pr.attempted++
		if !bytes.Equal(body, outs["fig3.txt"]) {
			pr.fail(fmt.Errorf("casestudy %s: a re-rendered profile differs from the first", key))
		}
	}
	return pr
}

// render is the warm phase: nproc clients re-render the world's Fig. 3
// profile caseRenders times between them, recording each render's
// latency and the phase's wall time in pr. The renders are returned for
// checking after the phase; a failed render is nil. Concurrent clients
// keep every CPU busy: a single render loop leaves the others idle, and
// its tail then depends on how fast the host wakes an idle virtual CPU
// for the garbage collector.
func (w *caseWorkload) render(res *harness.CaseStudyResult, size int, pr *passResult) [][]byte {
	clients := w.env.procs
	lat := make([][]time.Duration, clients)
	bodies := make([][][]byte, clients)
	runtime.GC() // start the warm phase from a collected heap
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < caseRenders/clients; r++ {
				var buf bytes.Buffer
				buf.Grow(size)
				t0 := time.Now()
				err := res.WriteProfile(&buf)
				lat[c] = append(lat[c], time.Since(t0))
				if err != nil {
					bodies[c] = append(bodies[c], nil)
					continue
				}
				bodies[c] = append(bodies[c], buf.Bytes())
			}
		}(c)
	}
	wg.Wait()
	pr.warmWall += time.Since(start)
	var all [][]byte
	for c := range lat {
		pr.warm = append(pr.warm, lat[c]...)
		all = append(all, bodies[c]...)
	}
	return all
}

// probe runs the kernel, cache and proxy probes on the case study's base
// tile and its once-refined size, then times the first world under every
// scheduler mode.
func (w *caseWorkload) probe(t *tracer) error {
	first := pick(caseSeeds, w.seed)
	cfg := w.cfgs[first]
	nx, ny := cfg.App.Mesh.TileNx, cfg.App.Mesh.TileNy
	shapes := []shape{{nx, ny, cfg.World.Cache}, {2 * nx, 2 * ny, cfg.World.Cache}}
	probeKernels(t, shapes)
	probeCache(t, shapes)
	if err := probeProxy(t, shapes[0]); err != nil {
		return err
	}
	return probeModes(t, w.env, first)
}

// renderCase renders a finished world's outputs: the Fig. 3 profile, the
// Fig. 9 ghost-communication CSV, the Fig. 1 PGM, and every rank's TAU
// timers (calls and virtual times) with its PAPI counters.
func renderCase(res *harness.CaseStudyResult) (map[string][]byte, error) {
	outs := map[string][]byte{}
	for name, fn := range map[string]func(*bytes.Buffer) error{
		"fig3.txt": func(b *bytes.Buffer) error { return res.WriteProfile(b) },
		"fig9.csv": func(b *bytes.Buffer) error { return res.WriteGhostCommCSV(b) },
		"fig1.pgm": func(b *bytes.Buffer) error { return res.WritePGM(b) },
	} {
		var buf bytes.Buffer
		if err := fn(&buf); err != nil {
			return nil, fmt.Errorf("render %s: %w", name, err)
		}
		outs[name] = buf.Bytes()
	}
	outs["tau+papi"] = dumpProfiles(res.Profiles)
	return outs, nil
}

// dumpProfiles serializes every rank's timers (name, calls, inclusive and
// exclusive values of every metric, bit-exact) and its counter snapshot.
func dumpProfiles(profs []*tau.Profile) []byte {
	var buf bytes.Buffer
	bits := func(v float64) { _ = binary.Write(&buf, binary.LittleEndian, math.Float64bits(v)) }
	for rank, p := range profs {
		fmt.Fprintf(&buf, "rank %d %s\n", rank, strings.Join(p.MetricNames(), ","))
		for _, tm := range p.Timers() {
			fmt.Fprintf(&buf, "%s|%s|%d|", tm.Name(), tm.Group(), tm.Calls())
			for m := range p.MetricNames() {
				bits(tm.InclusiveMetric(m))
				bits(tm.ExclusiveMetric(m))
			}
			buf.WriteByte('\n')
		}
		for _, v := range p.Snapshot() {
			bits(v)
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// mpiCollectives are the TAU timers counted as collective operations.
var mpiCollectives = []string{"MPI_Allgather()", "MPI_Allreduce()", "MPI_Barrier()", "MPI_Bcast()", "MPI_Reduce()"}

// caseCounts records a world's exact counts from its TAU profiles: proxied
// component calls, point-to-point messages, collectives and the virtual
// makespan, beside the real time the world took.
func caseCounts(t *tracer, res *harness.CaseStudyResult, real time.Duration) {
	var virtual float64
	for _, p := range res.Profiles {
		for _, tm := range p.Timers() {
			name := tm.Name()
			switch {
			case strings.Contains(name, "_proxy::"):
				t.count("tau_cca.proxy_calls", float64(tm.Calls()))
			case name == "MPI_Isend()" || name == "MPI_Send()":
				t.count("mpi.messages", float64(tm.Calls()))
			case name == caseMainTimer:
				virtual = math.Max(virtual, tm.Inclusive())
			}
			for _, c := range mpiCollectives {
				if name == c {
					t.count("mpi.collectives", float64(tm.Calls()))
				}
			}
		}
	}
	t.count("mpi.virtual_us", virtual)
	t.addTime("mpi.world_real_s", real)
}

// pick maps any seed onto an entry of pool.
func pick(pool []int64, seed int64) int64 {
	n := int64(len(pool))
	return pool[((seed%n)+n)%n]
}
