package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/harness"
)

// testEnv is an env whose references are recorded by the first pass that
// sees each output.
func testEnv(t *testing.T) *env {
	t.Helper()
	r, err := loadRefs(nil, true)
	if err != nil {
		t.Fatal(err)
	}
	return &env{work: t.TempDir(), procs: 2, refs: r}
}

// smallTrend is the trend workload on a three-size sweep, so a pass takes
// a fraction of a second.
func smallTrend(t *testing.T, e *env) *trendWorkload {
	t.Helper()
	w := newTrend(e)
	w.warmRuns = 2
	if err := w.setup(filepath.Join(e.work, "setup"), 1); err != nil {
		t.Fatal(err)
	}
	w.base.Sizes = harness.LogSizes(1_000, 3_000, 3)
	return w
}

// smallCase is the case-study workload cut to two coarse steps.
func smallCase(t *testing.T, e *env) *caseWorkload {
	t.Helper()
	w := newCase(e)
	if err := w.setup("", 1); err != nil {
		t.Fatal(err)
	}
	for ws, cfg := range w.cfgs {
		cfg.App.Driver.Steps = 2
		w.cfgs[ws] = cfg
	}
	return w
}

func TestDigestMismatchIsFailure(t *testing.T) {
	body := []byte(`{"ok": true}`)
	r := &refs{table: map[string]map[string]map[string]string{
		"query": {"seed=1": {"/healthz": digest(body)}},
	}}
	w := &queryWorkload{env: &env{refs: r}, key: "seed=1"}
	var pr passResult
	w.check(&pr, "/healthz", http.StatusOK, body)
	if pr.attempted != 1 || pr.failed != 0 {
		t.Fatalf("matching body: attempted %d failed %d, want 1 and 0", pr.attempted, pr.failed)
	}
	w.check(&pr, "/healthz", http.StatusOK, []byte(`{"ok": false}`))
	w.check(&pr, "/healthz", http.StatusNotFound, body)
	w.check(&pr, "/unrecorded", http.StatusOK, body)
	if pr.attempted != 4 || pr.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 4 and 3 (wrong body, bad status, no reference)", pr.attempted, pr.failed)
	}
}

func TestRecordModeRejectsNondeterminism(t *testing.T) {
	r, _ := loadRefs(nil, true)
	if !r.check("w", "k", "out", []byte("a")) || !r.check("w", "k", "out", []byte("a")) {
		t.Fatal("recording the same output twice should pass")
	}
	if r.check("w", "k", "out", []byte("b")) {
		t.Fatal("a second, different output under the same name should fail")
	}
}

// TestWrappersAreTransparent runs the trend workload untraced, recording
// every output digest, then traced with the store, sink and job wrappers
// on: every digest must match.
func TestWrappersAreTransparent(t *testing.T) {
	e := testEnv(t)
	w := smallTrend(t, e)
	plain := w.pass(filepath.Join(e.work, "plain"), nil)
	if plain.failed > 0 {
		t.Fatalf("untraced pass: %d failures: %v", plain.failed, plain.errs)
	}
	if plain.wall <= 0 || plain.cpu <= 0 || plain.warmWall <= 0 {
		t.Errorf("untraced pass: work wall %v cpu %v, warm wall %v; want all timed", plain.wall, plain.cpu, plain.warmWall)
	}
	e.refs.record = false
	tr := newTracer()
	tr.reset()
	traced := w.pass(filepath.Join(e.work, "traced"), tr)
	if traced.failed > 0 || traced.attempted != plain.attempted {
		t.Fatalf("traced pass: %d of %d failed (untraced attempted %d): %v",
			traced.failed, traced.attempted, plain.attempted, traced.errs)
	}
	counts, _ := tr.snapshot()
	if counts["store.puts"] != 5 || counts["campaign.jobs_cached"] != 10 || counts["sink.rows"] == 0 {
		t.Errorf("wrappers saw %v", counts)
	}
}

// tracedCounts runs one traced pass and returns its exact counts.
func tracedCounts(t *testing.T, w workload, dir string) map[string]float64 {
	t.Helper()
	tr := newTracer()
	tr.reset()
	if pr := w.pass(dir, tr); pr.failed > 0 {
		t.Fatalf("traced pass: %v", pr.errs)
	}
	counts, _ := tr.snapshot()
	return counts
}

func TestExactCountsRepeat(t *testing.T) {
	e := testEnv(t)
	q := newQuery(e)
	if err := q.setup(filepath.Join(e.work, "catalog"), 1); err != nil {
		t.Fatal(err)
	}
	for name, w := range map[string]workload{"trend": smallTrend(t, e), "casestudy": smallCase(t, e), "query": q} {
		a := tracedCounts(t, w, filepath.Join(e.work, name+"-a"))
		if c, ok := w.(*caseWorkload); ok {
			c.n = 0 // run the same world again
		}
		b := tracedCounts(t, w, filepath.Join(e.work, name+"-b"))
		if len(a) == 0 || !reflect.DeepEqual(a, b) {
			t.Errorf("%s: counts differ between traced passes:\n%v\n%v", name, a, b)
		}
	}
	probe := func() map[string]float64 {
		tr := newTracer()
		tr.reset()
		shapes := []shape{squareShape(1_000, 128), squareShape(4_000, 1024)}
		probeKernels(tr, shapes)
		counts, _ := tr.snapshot()
		return counts
	}
	if a, b := probe(), probe(); !reflect.DeepEqual(a, b) {
		t.Errorf("kernel probe counts differ:\n%v\n%v", a, b)
	}
}

func TestBenchmarkFileListsTheReportedMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not found beside the benchmark directory")
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		file []struct{ Name, Unit string }
		code []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the code %d", len(c.file), len(c.code))
		}
		for i, m := range c.file {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("metric %d: file %s [%s], code %s [%s]", i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

func TestSampleLayer(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"math.Pow", "repro/internal/euler.RiemannStar", "repro/internal/components.(*FluxProxy).Compute"}, "euler"},
		{[]string{"repro/internal/cache.(*Cache).accessLine", "repro/internal/platform.(*Proc).ChargeStreamHinted"}, "cache"},
		{[]string{"encoding/json.Marshal", "repro/internal/results/serve.writeJSON"}, "serve"},
		{[]string{"os.Rename", "repro/internal/results/store.(*Store).Put"}, "results"},
		{[]string{"repro/internal/tau.(*Profile).Start"}, "tau_cca"},
		{[]string{"repro/internal/campaign.(*runState).work"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"syscall.Syscall", "main.main"}, "other"},
	} {
		if got := sampleLayer(c.stack); got != c.want {
			t.Errorf("sampleLayer(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestCPUSharesFromProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	c := cache.New(cache.XeonL2())
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		c.AccessRange(0, 1<<16, 72)
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// Only cache code ran, so it is the only repro layer with samples. (How
	// much lands in "other" depends on the build: the race detector's
	// runtime takes most samples under -race.)
	total := 0.0
	for _, l := range cpuLayers {
		total += shares[l]
		if l != "cache" && l != "other" && l != "runtime_gc" && shares[l] != 0 {
			t.Errorf("layer %s has share %v; only cache code ran", l, shares[l])
		}
	}
	if shares["cache"] == 0 || total < 0.99 || total > 1.01 {
		t.Errorf("shares %v: want a cache share and a total of 1", shares)
	}
}
