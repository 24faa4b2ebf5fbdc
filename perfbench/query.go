package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/results/serve"
)

// queryWorkload is resultsd answering queries in-process through
// Handler().ServeHTTP, with no sockets. Setup builds the catalog: a CSV
// rows directory from a small States scenario grid. A pass makes
// queryColdOps cold operations (a fresh serve.New plus one /trend over
// every scenario), then a fixed closed-loop warm mix of /predict (fitted
// and queue backends), /trend and /scenarios from nproc clients against
// the last service opened. The pass's timed work is all of that; the
// response checks run after it.
type queryWorkload struct {
	env     *env
	key     string
	rowsDir string
	urls    []string
	sizes   []int
	seed    int64
}

const (
	queryColdOps = 3
	queryCycles  = 20 // passes over the warm query set per client per pass
	queryColdURL = "/trend?axis=cache_kb"
)

// queryGridSeed is the catalog's grid seed. The States sweeps are
// seed-inert, so other grid seeds would give byte-identical responses;
// the run's --seed only shuffles the order of the warm queries.
const queryGridSeed = 1

// queryCaches is the catalog grid's cache axis.
var queryCaches = []int{128, 256, 512, 1024}

func newQuery(e *env) *queryWorkload { return &queryWorkload{env: e} }

// setup builds the rows directory from a small States grid: four cache
// sizes by two seed replications on 2 ranks, one repetition per size,
// streamed through a CSV shard sink by the campaign engine.
func (w *queryWorkload) setup(dir string, seed int64) error {
	gs := int64(queryGridSeed)
	w.key = fmt.Sprintf("seed=%d", gs)
	w.seed = seed
	base := harness.DefaultSweep(harness.KernelStates)
	w.sizes = harness.LogSizes(1_000, 12_000, 6)
	base.Sizes = w.sizes
	base.Reps = 1
	base.World.Procs = 2
	base.World.Seed = gs
	grid := campaign.Grid{
		Base:         base.World,
		Axes:         []campaign.Dimension{campaign.CacheAxis(queryCaches...)},
		Replications: 2,
		BaseSeed:     gs,
	}
	jobs, err := harness.StreamJobs(base, grid)
	if err != nil {
		return err
	}
	w.rowsDir = filepath.Join(dir, "rows")
	sink, err := results.NewCSVShardSink(w.rowsDir)
	if err != nil {
		return err
	}
	_, err = campaign.Run(context.Background(), campaign.Config{Workers: w.env.procs, Sink: sink}, jobs)
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	cat, err := serve.Open(w.rowsDir)
	if err != nil {
		return err
	}
	w.urls = queryMix(cat)
	return nil
}

// queryMix is the warm query set: per scenario, fitted mean and sigma
// predictions at two sizes and queue-backend response and utilization
// predictions; /trend for both backends; and /scenarios.
func queryMix(cat *serve.Catalog) []string {
	var urls []string
	for _, sc := range cat.Scenarios() {
		for _, q := range []int{2000, 16000} {
			urls = append(urls,
				fmt.Sprintf("/predict?scenario=%s&measure=mean_us&q=%d", sc.Name, q),
				fmt.Sprintf("/predict?scenario=%s&measure=sigma_us&q=%d", sc.Name, q),
				fmt.Sprintf("/predict?scenario=%s&measure=response_us&q=%d&model=queue&lambda=20", sc.Name, q),
				fmt.Sprintf("/predict?scenario=%s&measure=utilization&q=%d&model=queue&lambda=20", sc.Name, q),
			)
		}
	}
	return append(urls, queryColdURL, queryColdURL+"&model=queue", "/scenarios")
}

// endpoint names the handler a query URL reaches.
func endpoint(url string) string {
	path, _, _ := strings.Cut(url, "?")
	return strings.TrimPrefix(path, "/")
}

// get serves one GET in-process and returns the status and body.
func get(h http.Handler, url string) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	return rec.Code, rec.Body.Bytes()
}

// check counts one query outcome: a non-200 status or a body whose digest
// differs from the reference is a failure.
func (w *queryWorkload) check(pr *passResult, url string, code int, body []byte) {
	pr.attempted++
	switch {
	case code != http.StatusOK:
		pr.fail(fmt.Errorf("query %s: status %d: %s", url, code, body))
	case !w.env.refs.check("query", w.key, url, body):
		pr.fail(fmt.Errorf("query %s %s: body digest differs from the reference", w.key, url))
	}
}

// reply is one response kept for checking after the timed work.
type reply struct {
	code int
	body []byte
}

// pass makes the cold operations, then the warm closed-loop mix, and then
// checks every response.
func (w *queryWorkload) pass(_ string, t *tracer) passResult {
	var pr passResult
	urls := make([][]string, w.env.procs)
	for c := range urls {
		// Every client sends each query of the set queryCycles times, in an
		// order the seed shuffles.
		rng := rand.New(rand.NewSource(w.seed*1009 + int64(c)))
		for i := 0; i < queryCycles; i++ {
			for _, j := range rng.Perm(len(w.urls)) {
				urls[c] = append(urls[c], w.urls[j])
			}
		}
	}
	var cold []reply
	var replies [][]reply
	pr.work(func() { cold, replies = w.serve(&pr, t, urls) })
	for _, r := range cold {
		w.check(&pr, queryColdURL, r.code, r.body)
	}
	for c := range replies {
		for i, r := range replies[c] {
			w.check(&pr, urls[c][i], r.code, r.body)
		}
	}
	return pr
}

// serve makes the cold operations, then the warm mix with one client per
// entry of urls, keeping every response for checking.
func (w *queryWorkload) serve(pr *passResult, t *tracer, urls [][]string) (cold []reply, replies [][]reply) {
	var o *obs.Observer
	if t != nil {
		o = obs.New(obs.Options{})
	}
	var h http.Handler
	for i := 0; i < queryColdOps; i++ {
		id := 0
		if t != nil {
			id = t.begin("serve", "cold: New + GET "+queryColdURL, 0)
		}
		start := time.Now()
		svc, err := serve.New(w.rowsDir, serve.Options{Obs: o})
		if err != nil {
			pr.attempted++
			pr.fail(err)
			continue
		}
		opened := time.Since(start)
		h = svc.Handler()
		code, body := get(h, queryColdURL)
		pr.cold = append(pr.cold, time.Since(start))
		if t != nil {
			t.end(id)
			t.addTime("serve.open_s", opened/queryColdOps)
		}
		cold = append(cold, reply{code, body})
	}
	if h == nil {
		return cold, nil
	}

	clients := len(urls)
	lat := make([][]time.Duration, clients)
	replies = make([][]reply, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if t != nil {
				defer t.end(t.begin("serve", fmt.Sprintf("warm client %d", c), 0))
			}
			lat[c] = make([]time.Duration, 0, len(urls[c]))
			replies[c] = make([]reply, 0, len(urls[c]))
			for _, url := range urls[c] {
				t0 := time.Now()
				code, body := get(h, url)
				lat[c] = append(lat[c], time.Since(t0))
				replies[c] = append(replies[c], reply{code, body})
			}
		}(c)
	}
	wg.Wait()
	pr.warmWall = time.Since(start)
	for c := range lat {
		pr.warm = append(pr.warm, lat[c]...)
	}
	if t != nil {
		byEndpoint := map[string][]float64{}
		for c := range lat {
			for i, url := range urls[c] {
				byEndpoint[endpoint(url)] = append(byEndpoint[endpoint(url)], float64(lat[c][i].Nanoseconds())/1e3)
			}
		}
		for ep, us := range byEndpoint {
			t.addValue("serve.handler_us."+ep, median(us))
		}
		reg := o.Metrics()
		t.count("serve.cache_hits", float64(reg.Counter("resultsd_cache_hits_total").Value()))
		t.count("serve.cache_misses", float64(reg.Counter("resultsd_cache_misses_total").Value()))
	}
	return cold, replies
}

// probe runs the kernel, cache and proxy probes on the catalog sweep's
// smallest and largest shapes under its smallest and largest caches, then
// decodes every row shard of the catalog.
func (w *queryWorkload) probe(t *tracer) error {
	var shapes []shape
	for _, kb := range []int{queryCaches[0], queryCaches[len(queryCaches)-1]} {
		for _, q := range []int{w.sizes[0], w.sizes[len(w.sizes)-1]} {
			shapes = append(shapes, squareShape(q, kb))
		}
	}
	probeKernels(t, shapes)
	probeCache(t, shapes)
	if err := probeProxy(t, shapes[0]); err != nil {
		return err
	}
	ents, err := os.ReadDir(w.rowsDir)
	if err != nil {
		return err
	}
	var files []string
	for _, e := range ents {
		files = append(files, filepath.Join(w.rowsDir, e.Name()))
	}
	return probeRows(t, files)
}
