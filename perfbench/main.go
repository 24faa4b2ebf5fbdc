// Command perfbench is the repository benchmark. It runs one of three
// in-process workloads for a fixed time, checks every output against
// recorded reference digests, and prints its end-to-end metrics (or, with
// -trace 1, its per-layer metrics) with units. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload trend --seed 1 --seconds 40 --trace 0
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// workload is one benchmark scenario.
type workload interface {
	// setup builds the workload's inputs under dir from the run's seed.
	setup(dir string, seed int64) error
	// pass runs one unit of the workload's fixed work under dir; t is nil
	// in untraced passes.
	pass(dir string, t *tracer) passResult
	// probe runs the traced run's layer probes on the workload's shapes.
	probe(t *tracer) error
}

// passResult is one pass's outcome.
type passResult struct {
	cold, warm []time.Duration
	// wall and cpu are the wall and CPU time of the pass's fixed work, the
	// work the CLI does. They leave out the benchmark's output checks and
	// the warm phases of trend and casestudy, which exist only to sample
	// warm latency.
	wall, cpu time.Duration
	// warmWall is the wall time of the pass's warm phases.
	warmWall          time.Duration
	attempted, failed int
	errs              []error
}

// fail counts one failed operation.
func (p *passResult) fail(err error) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err)
	}
}

// work runs fn and adds its wall and CPU time to the pass's work time.
func (p *passResult) work(fn func()) {
	c0, t0 := cpuTime(), time.Now()
	fn()
	p.wall += time.Since(t0)
	p.cpu += cpuTime() - c0
}

// merge adds another result's operation counts and errors.
func (p *passResult) merge(o passResult) {
	p.attempted += o.attempted
	p.failed += o.failed
	for _, err := range o.errs {
		if len(p.errs) < 5 {
			p.errs = append(p.errs, err)
		}
	}
}

// env is what every workload shares.
type env struct {
	work  string // scratch directory, removed at exit
	procs int    // nproc: campaign workers, rank cap and query clients
	refs  *refs
}

var workloads = map[string]func(*env) workload{
	"trend":     func(e *env) workload { return newTrend(e) },
	"casestudy": func(e *env) workload { return newCase(e) },
	"query":     func(e *env) workload { return newQuery(e) },
}

// The metrics BENCHMARK.json lists, in order. Every run prints all of the
// listed set for its mode; a test checks the lists match the file.
var (
	endToEnd = []metricDef{
		{"setup_s", "s"}, {"wall_s", "s"}, {"cpu_s", "s"}, {"peak_rss_mb", "MB"},
		{"cold_p50_ms", "ms"}, {"cold_p90_ms", "ms"},
		{"warm_p50_us", "us"}, {"warm_p95_us", "us"}, {"warm_qps", "1/s"},
	}
	perLayer = []metricDef{
		{"campaign.jobs_run", "count"}, {"campaign.jobs_cached", "count"},
		{"store.puts", "count"}, {"store.put_bytes", "count"}, {"store.gets", "count"}, {"store.hits", "count"},
		{"sink.rows", "count"}, {"sink.bytes", "count"},
		{"euler.states_ns_per_cell", "ns"}, {"euler.godunov_ns_per_face", "ns"},
		{"euler.riemann_iters", "count"}, {"euler.flops", "count"},
		{"cache.accesses", "count"}, {"cache.misses", "count"},
		{"cache.ns_per_access_seq", "ns"}, {"cache.ns_per_access_strided", "ns"},
		{"cache.charge_share_est", "frac"},
		{"tau_cca.proxy_overhead_ns", "ns"}, {"tau_cca.start_stop_ns", "ns"}, {"tau_cca.proxy_calls", "count"},
		{"mpi.messages", "count"}, {"mpi.collectives", "count"},
		{"serve.cache_hits", "count"}, {"serve.cache_misses", "count"},
		{"go.alloc_mb", "MB"}, {"go.gc_cycles", "count"}, {"go.gc_pause_s", "s"},
		{"cpu_share.euler", "frac"}, {"cpu_share.cache", "frac"}, {"cpu_share.platform", "frac"},
		{"cpu_share.amr", "frac"}, {"cpu_share.mpi", "frac"}, {"cpu_share.tau_cca", "frac"},
		{"cpu_share.results", "frac"}, {"cpu_share.serve", "frac"}, {"cpu_share.runtime_gc", "frac"},
		{"cpu_share.other", "frac"},
		{"trace.overhead_frac", "frac"},
	}
)

type metricDef struct{ name, unit string }

// setupPlan is how a run times its set-up: it builds the inputs size
// times per timed batch, and setup_s is the median over batches of the
// batch time per set-up. trend and casestudy set up in microseconds, so
// they are batched until a timed sample lasts milliseconds.
var setupPlan = map[string]struct{ batches, size int }{
	"trend":     {21, 40},
	"casestudy": {21, 400},
	"query":     {5, 1},
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: trend | casestudy | query")
		seed    = flag.Int64("seed", 1, "input seed")
		secs    = flag.Int("seconds", 30, "measurement time in seconds")
		traced  = flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
		root    = flag.String("root", ".", "checkout root; scratch files and artifacts go under <root>/.bench_build")
		record  = flag.Bool("record", false, "record reference digests for every input of the workload into refs.json instead of measuring")
		bandDir = flag.String("band", "", "summarize the result files in this directory: median and quartile spread per metric across runs")
	)
	flag.Parse()
	if *bandDir != "" {
		if err := band(os.Stdout, *bandDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	mk, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q (want trend, casestudy or query)\n", *name)
		return 2
	}
	build := filepath.Join(*root, ".bench_build")
	e := &env{work: filepath.Join(build, "work", fmt.Sprintf("%s-%d", *name, os.Getpid())), procs: runtime.NumCPU()}
	defer os.RemoveAll(e.work)
	var err error
	if e.refs, err = loadRefs(refsJSON, *record); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	w := mk(e)
	if *record {
		err = recordRefs(e, w, *name, filepath.Join(*root, "perfbench", "refs.json"))
	} else {
		err = measure(e, w, *name, *seed, time.Duration(*secs)*time.Second, *traced == 1, filepath.Join(build, "artifacts"))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// recordRefs runs one pass on every input the workload has (trend and
// query have one; casestudy has one world per entry of caseSeeds) and
// writes the digests it saw.
func recordRefs(e *env, w workload, name, path string) error {
	inputs := map[string]int{"trend": 1, "casestudy": len(caseSeeds), "query": 1}[name]
	for i := 0; i < inputs; i++ {
		dir := filepath.Join(e.work, fmt.Sprintf("record%d", i))
		if err := w.setup(dir, int64(i)); err != nil {
			return err
		}
		pr := w.pass(filepath.Join(dir, "pass"), nil)
		if pr.failed > 0 {
			return fmt.Errorf("recording %s input %d: %d failed operations: %v", name, i, pr.failed, errors.Join(pr.errs...))
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return e.refs.merge(path, name)
}

// runner repeats passes of one workload and collects their figures.
type runner struct {
	e     *env
	w     workload
	n     int
	walls []float64
	cpus  []float64
	// Warm latency percentiles and throughput of each pass. The host's
	// speed drifts over seconds, so a run reports the median pass rather
	// than pooling every sample, which would let its slowest stretch set
	// the tail.
	warmP50, warmP95, warmP99, warmQPS []float64
	total                              passResult
}

// passes runs passes for about budget (at least minPasses): it starts
// another only while the last one would still end within the budget.
func (r *runner) passes(budget time.Duration, minPasses int, t *tracer, each func()) {
	start := time.Now()
	var last time.Duration
	for i := 0; i < minPasses || time.Since(start)+last <= budget; i++ {
		dir := filepath.Join(r.e.work, fmt.Sprintf("pass%d", r.n))
		r.n++
		if t != nil {
			t.reset()
		}
		// Start every pass from a collected heap, as testing.B does before
		// timing, so one pass's garbage is not charged to the next.
		runtime.GC()
		t0 := time.Now()
		pr := r.w.pass(dir, t)
		last = time.Since(t0)
		r.walls = append(r.walls, pr.wall.Seconds())
		r.cpus = append(r.cpus, pr.cpu.Seconds())
		if each != nil {
			each()
		}
		_ = os.RemoveAll(dir)
		r.total.cold = append(r.total.cold, pr.cold...)
		if warm := seconds(pr.warm); len(warm) > 0 {
			r.warmP50 = append(r.warmP50, quantile(warm, 0.5))
			r.warmP95 = append(r.warmP95, quantile(warm, 0.95))
			r.warmP99 = append(r.warmP99, quantile(warm, 0.99))
			r.warmQPS = append(r.warmQPS, float64(len(warm))/pr.warmWall.Seconds())
		}
		r.total.warm = append(r.total.warm, pr.warm...)
		r.total.merge(pr)
	}
}

// measure runs the workload for budget and reports its metrics.
func measure(e *env, w workload, name string, seed int64, budget time.Duration, traced bool, artifacts string) error {
	if err := os.MkdirAll(artifacts, 0o755); err != nil {
		return err
	}
	rep := newReport(name, seed, traced, e.procs)
	plan := setupPlan[name]
	if traced {
		plan.batches, plan.size = 1, 1
	}
	var setups []float64
	for b, i := 0, 0; b < plan.batches; b++ {
		runtime.GC()
		start := time.Now()
		for k := 0; k < plan.size; k, i = k+1, i+1 {
			if err := w.setup(filepath.Join(e.work, fmt.Sprintf("setup%d", i)), seed); err != nil {
				return fmt.Errorf("setup: %w", err)
			}
		}
		setups = append(setups, time.Since(start).Seconds()/float64(plan.size))
	}
	rep.timing("setup_s", setups, "s")
	// peak_rss_mb covers the measured passes, not the set-ups before them.
	debug.FreeOSMemory()
	resetPeakRSS()

	r := &runner{e: e, w: w}
	if !traced {
		r.passes(budget, 3, nil, nil)
		endToEndMetrics(rep, r)
	} else if err := tracedRun(e, w, seed, rep, r, budget, filepath.Join(artifacts, fmt.Sprintf("%s-seed%d", name, seed))); err != nil {
		return err
	}
	rep.attempted, rep.failed = r.total.attempted, r.total.failed
	rep.set("failed_frac", float64(rep.failed)/float64(max(rep.attempted, 1)), "frac", rep.attempted)
	for _, err := range r.total.errs {
		fmt.Println("failure:", err)
	}
	return rep.finish(os.Stdout, filepath.Join(artifacts, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, boolInt(traced))))
}

// endToEndMetrics derives the end-to-end metrics from untraced passes.
func endToEndMetrics(rep *report, r *runner) {
	rep.timing("wall_s", r.walls, "s")
	rep.timing("cpu_s", r.cpus, "s")
	rep.set("peak_rss_mb", peakRSSMB(), "MB", 1)
	cold := seconds(r.total.cold)
	n := len(r.total.warm)
	rep.set("cold_p50_ms", quantile(cold, 0.5)*1e3, "ms", len(cold))
	rep.set("cold_p90_ms", quantile(cold, 0.9)*1e3, "ms", len(cold))
	rep.set("warm_p50_us", median(r.warmP50)*1e6, "us", n)
	rep.set("warm_p95_us", median(r.warmP95)*1e6, "us", n)
	// Report-only: from run to run, the p99 of trend's replays and of
	// casestudy's renders spreads by about 0.2, too close to the largest
	// bound a listed metric may have (0.25); their p95 spreads by half that.
	rep.set("warm_p99_us", median(r.warmP99)*1e6, "us", n)
	rep.set("warm_qps", median(r.warmQPS), "1/s", n)
}

// tracedRun measures half the budget untraced and half traced (wrappers,
// spans and a CPU profile on), then runs the layer probes.
func tracedRun(e *env, w workload, seed int64, rep *report, r *runner, budget time.Duration, prefix string) error {
	r.passes(budget/2, 1, nil, nil)
	untraced := median(r.walls)
	// Set up again so the traced passes start from the same inputs in
	// every run, whatever number of untraced passes came first: the exact
	// counts of two traced runs must match.
	if err := w.setup(filepath.Join(e.work, "setup-traced"), seed); err != nil {
		return fmt.Errorf("setup: %w", err)
	}

	t := newTracer()
	tr := &runner{e: e, w: w, n: r.n}
	var counts map[string]float64
	values := map[string][]float64{}
	prof, err := os.Create(prefix + ".cpu.pprof")
	if err != nil {
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return err
	}
	tr.passes(budget/2, 1, t, func() {
		c, v := t.snapshot()
		if counts == nil {
			counts = c
		}
		for k, x := range v {
			values[k] = append(values[k], x)
		}
	})
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)
	if err := prof.Close(); err != nil {
		return err
	}
	r.total.merge(tr.total)

	// Exact counts come from the first traced pass, which runs the same
	// inputs in every run of a seed.
	for _, d := range perLayer {
		if d.unit == "count" {
			rep.count(d.name, 0)
		}
	}
	for _, k := range sortedKeys(counts) {
		rep.count(k, counts[k])
	}
	for _, k := range sortedKeys(values) {
		rep.timing(k, values[k], unitOf(k))
	}
	n := float64(len(tr.walls))
	rep.set("go.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/n/(1<<20), "MB", len(tr.walls))
	rep.set("go.gc_cycles", float64(ms1.NumGC-ms0.NumGC)/n, "count", len(tr.walls))
	rep.set("go.gc_pause_s", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/n/1e9, "s", len(tr.walls))
	rep.set("trace.overhead_frac", median(tr.walls)/untraced-1, "frac", len(tr.walls))
	if v, ok := rep.value("mpi.virtual_us"); ok && v > 0 {
		if real, ok := rep.value("mpi.world_real_s"); ok {
			rep.set("mpi.slowdown", real/(v*1e-6), "x", len(tr.walls))
		}
	}

	data, err := os.ReadFile(prefix + ".cpu.pprof")
	if err != nil {
		return err
	}
	shares, err := cpuShares(data)
	if err != nil {
		return err
	}
	for _, l := range cpuLayers {
		rep.set("cpu_share."+l, shares[l], "frac", 1)
	}

	t.reset()
	if err := w.probe(t); err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	c, v := t.snapshot()
	for _, k := range sortedKeys(c) {
		rep.count(k, c[k])
	}
	for _, k := range sortedKeys(v) {
		rep.set(k, v[k], unitOf(k), 1)
	}
	if acc, ok := rep.value("cache.accesses"); ok {
		seq, _ := rep.value("cache.ns_per_access_seq")
		str, _ := rep.value("cache.ns_per_access_strided")
		kernel, _ := rep.value("euler.kernel_s")
		rep.set("cache.charge_share_est", acc*(seq+str)/2/(kernel*1e9), "frac", 1)
	}
	return t.writeSpans(prefix + ".spans.json")
}

// unitOf infers a per-layer value's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_s") || strings.Contains(name, ".world_s."):
		return "s"
	case strings.HasSuffix(name, "_ns") || strings.Contains(name, "ns_per"):
		return "ns"
	case strings.Contains(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_frac"):
		return "frac"
	}
	return "count"
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// entry is one reported metric.
type entry struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Exact marks a deterministic count that must repeat bit for bit.
	Exact bool `json:"exact,omitempty"`
	// N is the sample count behind a measured value.
	N int `json:"n,omitempty"`
}

// report collects a run's metrics and writes them out.
type report struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Traced    bool    `json:"traced"`
	Host      host    `json:"host"`
	Metrics   []entry `json:"metrics"`
	attempted int
	failed    int
	index     map[string]int
}

// host is the host class a result was measured on.
type host struct {
	GOOS, GOARCH string
	CPU          string
	NProc        int
	GoVersion    string
}

func newReport(workload string, seed int64, traced bool, procs int) *report {
	return &report{
		Workload: workload, Seed: seed, Traced: traced, index: map[string]int{},
		Host: host{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPU: cpuModel(), NProc: procs, GoVersion: runtime.Version()},
	}
}

// cpuModel reads the processor model name from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func (r *report) put(e entry) {
	if i, ok := r.index[e.Name]; ok {
		r.Metrics[i] = e
		return
	}
	r.index[e.Name] = len(r.Metrics)
	r.Metrics = append(r.Metrics, e)
}

// set records a measured value from n samples.
func (r *report) set(name string, v float64, unit string, n int) {
	r.put(entry{Name: name, Value: v, Unit: unit, N: n})
}

// timing records the median of samples.
func (r *report) timing(name string, samples []float64, unit string) {
	r.set(name, median(samples), unit, len(samples))
}

// count records an exact count.
func (r *report) count(name string, v float64) {
	r.put(entry{Name: name, Value: v, Unit: unitOf(name), Exact: true})
}

func (r *report) value(name string) (float64, bool) {
	i, ok := r.index[name]
	if !ok {
		return 0, false
	}
	return r.Metrics[i].Value, true
}

// finish prints the human-readable table, writes the full report as an
// artifact, and prints the result line with the listed metrics last.
func (r *report) finish(out *os.File, artifact string) error {
	fmt.Fprintf(out, "host: %s/%s, %s, nproc %d, %s\n", r.Host.GOOS, r.Host.GOARCH, r.Host.CPU, r.Host.NProc, r.Host.GoVersion)
	fmt.Fprintf(out, "workload %s, seed %d, traced %v\n", r.Workload, r.Seed, r.Traced)
	for _, m := range r.Metrics {
		if m.Exact {
			fmt.Fprintf(out, "  %-34s %16s %-6s exact\n", m.Name, strconv.FormatFloat(m.Value, 'f', -1, 64), m.Unit)
			continue
		}
		fmt.Fprintf(out, "  %-34s %16.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(artifact, data, 0o644); err != nil {
		return err
	}
	listed := endToEnd
	if r.Traced {
		listed = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range listed {
		v, ok := r.value(d.name)
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = value{v, d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}
