package main

import (
	"math"
	"runtime/debug"
	"testing"
	"time"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10, 10, 10, 10}, 10, 10},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000..1, unsorted
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500}, {0.9, 900}, {0.99, 990}, {1, 1000}, {0, 1}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 1000 {
		t.Error("quantile sorted its input in place")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) || !math.IsNaN(median(nil)) {
		t.Error("empty input should give NaN")
	}
}

func TestReportKeepsSampleCounts(t *testing.T) {
	// Three passes: the warm figures are the median pass's, the cold
	// percentiles pool every cold sample.
	r := &runner{
		walls:   []float64{3, 1, 2},
		cpus:    []float64{6, 2, 4},
		warmP50: []float64{100e-6, 300e-6, 200e-6},
		warmP95: []float64{500e-6, 700e-6, 600e-6},
		warmP99: []float64{900e-6, 700e-6, 800e-6},
		warmQPS: []float64{10, 30, 20},
	}
	r.total.warm = make([]time.Duration, 3000)
	r.total.cold = []time.Duration{time.Second, 3 * time.Second, 2 * time.Second, 4 * time.Second}
	rep := newReport("test", 1, false, 2)
	endToEndMetrics(rep, r)
	want := map[string]struct {
		v float64
		n int
	}{
		"wall_s":      {2, 3},
		"cpu_s":       {4, 3},
		"cold_p50_ms": {2000, 4},
		"cold_p90_ms": {4000, 4},
		"warm_p50_us": {200, 3000},
		"warm_p95_us": {600, 3000},
		"warm_p99_us": {800, 3000},
		"warm_qps":    {20, 3000},
	}
	for _, m := range rep.Metrics {
		w, ok := want[m.Name]
		if !ok {
			continue
		}
		if math.Abs(m.Value-w.v) > 1e-9 || m.N != w.n {
			t.Errorf("%s = %v (n=%d), want %v (n=%d)", m.Name, m.Value, m.N, w.v, w.n)
		}
		delete(want, m.Name)
	}
	if len(want) > 0 {
		t.Errorf("metrics not reported: %v", want)
	}
}

func TestPassesCollectPerPassWarmFigures(t *testing.T) {
	w := &fixedWorkload{}
	r := &runner{e: &env{work: t.TempDir()}, w: w}
	r.passes(0, 3, nil, nil)
	if len(r.walls) != 3 || len(r.warmP50) != 3 || len(r.total.warm) != 300 {
		t.Fatalf("passes: %d walls, %d warm p50s, %d warm samples", len(r.walls), len(r.warmP50), len(r.total.warm))
	}
	if r.walls[0] != 0.25 || r.cpus[0] != 0.125 {
		t.Errorf("pass work: wall %v cpu %v, want the pass's own 0.25 s and 0.125 s", r.walls[0], r.cpus[0])
	}
	if r.warmP50[0] != 50e-6 || r.warmP95[0] != 95e-6 || r.warmP99[0] != 99e-6 || r.warmQPS[0] != 1000 {
		t.Errorf("pass figures p50 %v p95 %v p99 %v qps %v", r.warmP50[0], r.warmP95[0], r.warmP99[0], r.warmQPS[0])
	}
	if r.total.attempted != 303 || r.total.failed != 0 {
		t.Errorf("attempted %d failed %d", r.total.attempted, r.total.failed)
	}
}

// fixedWorkload's passes report 0.25 s of work on 0.125 CPU-seconds, and
// 100 warm samples of 1..100 µs over 0.1 s.
type fixedWorkload struct{}

func (fixedWorkload) setup(string, int64) error { return nil }
func (fixedWorkload) probe(*tracer) error       { return nil }
func (fixedWorkload) pass(string, *tracer) passResult {
	pr := passResult{attempted: 101, cold: []time.Duration{time.Millisecond}, warmWall: 100 * time.Millisecond,
		wall: 250 * time.Millisecond, cpu: 125 * time.Millisecond}
	for i := 1; i <= 100; i++ {
		pr.warm = append(pr.warm, time.Duration(i)*time.Microsecond)
	}
	return pr
}

func TestCPUTimeFromGetrusage(t *testing.T) {
	c0, t0 := cpuTime(), time.Now()
	x := 0.0
	for time.Since(t0) < 200*time.Millisecond {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	sink = x
	used, wall := cpuTime()-c0, time.Since(t0)
	// A single busy goroutine burns about one CPU-second per second; allow
	// for a loaded machine and for getrusage's tick granularity.
	if used < wall/4 || used > 4*wall+50*time.Millisecond {
		t.Errorf("cpu time %v over a %v busy loop", used, wall)
	}
	if peakRSSMB() <= 0 {
		t.Error("peak RSS not reported")
	}
}

func TestPeakRSSReset(t *testing.T) {
	ballast := make([]byte, 64<<20)
	for i := range ballast {
		ballast[i] = 1
	}
	before := peakRSSMB()
	ballast = nil
	debug.FreeOSMemory()
	if !resetPeakRSS() {
		t.Skip("the resident-set high-water mark cannot be reset on this system")
	}
	if after := peakRSSMB(); after <= 0 || after > before-32 {
		t.Errorf("peak RSS %.1f MB after the reset, %.1f MB before freeing a 64 MB ballast", after, before)
	}
}

var sink float64
