package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/harness"
	"repro/internal/results"
	"repro/internal/results/store"
)

// trendWorkload is the Section 6 cache-axis trend campaign as
// `figures -fig trend -trendcaches 128,1024 -reps 1` builds it: one
// streaming States sweep job per (cache size, seed replication) on 3
// ranks, plus the trend job that fits and renders trend.csv/trend.txt.
// Each pass runs it cold on a fresh checkpoint store and CSV shard sink
// with nproc workers; that campaign is the pass's timed work. A separate
// warm phase then resumes it against the filled store, which replays
// every job from its checkpoint into a fresh sink, to sample warm latency.
type trendWorkload struct {
	env    *env
	key    string // reference key: the grid seed
	base   harness.SweepConfig
	grid   campaign.Grid
	axis   harness.TrendAxis
	caches []int
	reps   int
	// warmRuns is how many checkpoint resumes follow each cold campaign.
	// It is a sample size, not a model of use: a real re-run resumes
	// once. 200 resumes give 1000 warm job samples per pass, so a pass's
	// p99 rests on ten samples above it. The resumes are not part of
	// wall_s or cpu_s.
	warmRuns int
}

// trendGridSeed is the grid seed of every trend run. The States sweeps
// are seed-inert, so other seeds would give byte-identical outputs; the
// run's --seed changes nothing in this workload.
const trendGridSeed = 1

func newTrend(e *env) *trendWorkload {
	return &trendWorkload{env: e, caches: []int{128, 1024}, reps: 2, warmRuns: 200}
}

// setup builds the grid and the campaign's job graph, as the CLI does
// before running. The store and sink are opened by each pass, inside its
// timed campaign, as the CLI opens them.
func (w *trendWorkload) setup(dir string, _ int64) error {
	w.key = fmt.Sprintf("seed=%d", trendGridSeed)
	w.base = harness.DefaultSweep(harness.KernelStates)
	w.base.World.Procs = 3
	w.base.World.Seed = trendGridSeed
	w.base.Reps = 1
	axis, err := harness.TrendAxisNamed("cache_kb")
	if err != nil {
		return err
	}
	w.axis = axis
	w.grid = campaign.Grid{
		Base:         w.base.World,
		Axes:         []campaign.Dimension{campaign.CacheAxis(w.caches...)},
		Replications: w.reps,
		BaseSeed:     trendGridSeed,
	}
	_, err = w.jobs(dir)
	return err
}

// probe runs the kernel, cache and proxy probes on the sweep's smallest,
// middle and largest patch shapes under both cache sizes.
func (w *trendWorkload) probe(t *tracer) error {
	sizes := w.base.Sizes
	var shapes []shape
	for _, kb := range w.caches {
		for _, q := range []int{sizes[0], sizes[len(sizes)/2], sizes[len(sizes)-1]} {
			shapes = append(shapes, squareShape(q, kb))
		}
	}
	probeKernels(t, shapes)
	probeCache(t, shapes)
	return probeProxy(t, shapes[0])
}

// outFile is one rendered output file of the trend job.
type outFile struct {
	Name string
	Data []byte
}

// jobs builds the streaming scenario jobs plus the trend job, which
// renders into outDir like the figures CLI's trend job.
func (w *trendWorkload) jobs(outDir string) ([]campaign.Job, error) {
	jobs, err := harness.StreamJobs(w.base, w.grid)
	if err != nil {
		return nil, err
	}
	after := make([]string, len(jobs))
	for i, j := range jobs {
		after[i] = j.Key
	}
	write := func(files []outFile) error {
		for _, f := range files {
			if err := os.WriteFile(filepath.Join(outDir, f.Name), f.Data, 0o644); err != nil {
				return err
			}
		}
		return nil
	}
	trend := campaign.Job{
		Key:   "trend",
		After: after,
		Hash:  store.Hash("perfbench-trend-v1", w.base.World.Seed, w.caches, w.reps),
		Encode: func(v any) ([]byte, error) {
			var buf bytes.Buffer
			err := gob.NewEncoder(&buf).Encode(v.([]outFile))
			return buf.Bytes(), err
		},
		Decode: func(_ context.Context, data []byte) (any, error) {
			var files []outFile
			if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&files); err != nil {
				return nil, err
			}
			return files, write(files)
		},
		Run: func(_ context.Context, deps map[string]any) (any, error) {
			points := make([]harness.GridPoint, len(after))
			for i, key := range after {
				points[i] = deps[key].(harness.GridPoint)
			}
			reports, err := harness.BuildTrends(points, w.axis)
			if err != nil {
				return nil, err
			}
			var files []outFile
			for _, f := range []struct {
				name string
				fn   func(io.Writer, []*harness.TrendReport) error
			}{{"trend.csv", harness.WriteTrendCSV}, {"trend.txt", harness.WriteTrendReport}} {
				var buf bytes.Buffer
				if err := f.fn(&buf, reports); err != nil {
					return nil, err
				}
				files = append(files, outFile{f.name, buf.Bytes()})
			}
			return files, write(files)
		},
	}
	return append(jobs, trend), nil
}

// pass runs the campaign cold on a fresh store, then resumes it warmRuns
// times. Only the cold campaign counts as the pass's work.
func (w *trendWorkload) pass(dir string, t *tracer) passResult {
	var pr passResult
	var st *store.Store
	for run := 0; run <= w.warmRuns; run++ {
		warm := run > 0
		var (
			res    []campaign.Result
			runDir string
			wall   time.Duration
			err    error
		)
		if warm {
			// Every resume starts from a collected heap. A replay allocates
			// enough to run collections of its own, so its latency
			// otherwise depends on where in a GC cycle it starts: the
			// median job replay then flips between two modes about 60%
			// apart from one stretch of resumes to the next.
			runtime.GC()
			start := time.Now()
			res, runDir, wall, err = w.campaign(dir, run, st, t)
			pr.warmWall += time.Since(start)
		} else {
			pr.work(func() {
				if st, err = store.Open(filepath.Join(dir, "store")); err == nil {
					res, runDir, wall, err = w.campaign(dir, run, st, t)
				}
			})
		}
		if err != nil {
			pr.fail(err)
			if st == nil {
				return pr
			}
			continue
		}
		if !warm && t != nil {
			busy := 0.0
			for _, r := range res {
				busy += r.Elapsed.Seconds()
			}
			t.addValue("campaign.job_busy_s", busy)
			t.addValue("campaign.worker_idle_frac", 1-busy/(float64(w.env.procs)*wall.Seconds()))
		}
		for _, r := range res {
			pr.attempted++
			switch {
			case r.Err != nil:
				pr.fail(r.Err)
			case r.Cached != warm:
				pr.fail(fmt.Errorf("job %s: cached=%v on run %d", r.Key, r.Cached, run))
			case warm:
				pr.warm = append(pr.warm, r.Elapsed)
			case r.Key != "trend":
				pr.cold = append(pr.cold, r.Elapsed)
			}
			if t != nil {
				if r.Cached {
					t.count("campaign.jobs_cached", 1)
				} else {
					t.count("campaign.jobs_run", 1)
				}
			}
		}
		w.checkOutputs(&pr, runDir, t)
		// Each resume writes a full set of row shards; removing them once
		// checked keeps the page cache from filling with dirty pages whose
		// write-back would slow later resumes at random.
		_ = os.RemoveAll(runDir)
	}
	return pr
}

// campaign runs the job graph once against st with a fresh sink and output
// directory, returning the job results, the directory and the wall time.
func (w *trendWorkload) campaign(dir string, run int, st campaign.Store, t *tracer) ([]campaign.Result, string, time.Duration, error) {
	runDir := filepath.Join(dir, fmt.Sprintf("run%d", run))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, "", 0, err
	}
	jobs, err := w.jobs(runDir)
	if err != nil {
		return nil, "", 0, err
	}
	csvSink, err := results.NewCSVShardSink(filepath.Join(runDir, "rows"))
	if err != nil {
		return nil, "", 0, err
	}
	var sink results.Sink = csvSink
	// Resumes use nproc workers too, as a re-run of the CLI does. With one
	// worker the other CPUs idle, and replay latency then depends on how
	// fast the host wakes an idle virtual CPU for the GC and the engine's
	// goroutine hand-offs: it got faster, not slower, when a CPU hog ran
	// beside it.
	cfg := campaign.Config{Workers: w.env.procs, Store: st, Sink: sink}
	parent := 0
	if t != nil {
		parent = t.begin("campaign", fmt.Sprintf("trend run %d", run), 0)
		cfg.Store = &tracedStore{inner: st, t: t, parent: parent}
		sink = &tracedSink{inner: csvSink, t: t, parent: parent}
		cfg.Sink = sink
		jobs = t.wrapJobs(jobs, parent)
	}
	start := time.Now()
	res, err := campaign.Run(context.Background(), cfg, jobs)
	wall := time.Since(start)
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	if t != nil {
		t.end(parent)
	}
	return res, runDir, wall, err
}

// checkOutputs digests trend.csv, trend.txt and every row shard of one
// campaign run against the references.
func (w *trendWorkload) checkOutputs(pr *passResult, runDir string, t *tracer) {
	names := []string{"trend.csv", "trend.txt"}
	shards, err := os.ReadDir(filepath.Join(runDir, "rows"))
	if err != nil {
		pr.fail(err)
		return
	}
	var index []byte
	for _, s := range shards {
		names = append(names, "rows/"+s.Name())
		index = append(index, s.Name()+"\n"...)
	}
	pr.attempted++
	if !w.env.refs.check("trend", w.key, "rows/", index) {
		pr.fail(fmt.Errorf("trend %s: the row shard set differs from the reference", w.key))
	}
	for _, name := range names {
		pr.attempted++
		data, err := os.ReadFile(filepath.Join(runDir, name))
		if err != nil {
			pr.fail(err)
			continue
		}
		if t != nil && strings.HasPrefix(name, "rows/") {
			t.count("sink.bytes", float64(len(data)))
		}
		if !w.env.refs.check("trend", w.key, name, data) {
			pr.fail(fmt.Errorf("trend %s: %s digest differs from the reference", w.key, name))
		}
	}
}
