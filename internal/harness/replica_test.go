package harness

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/campaign"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/results/store"
	"repro/internal/results/store/lease"
)

// This file proves replica reuse exact: a States scenario's replications
// r>=1 that copy their r0 payload produce the same rows, gob-encoded
// GridPoint, stored checkpoint and CSV shard bytes as the same job run
// alone through StreamJob — whether r0 ran in this campaign, was resumed
// from the store, or was completed by another process and arrived through
// a lease ClaimDone. The tests enable the process-global observer to read
// the reuse counter, so none of them runs in parallel.

// reuseGrid is a States grid over the given cache sizes, three
// replications each.
func reuseGrid(caches ...int) (SweepConfig, campaign.Grid) {
	base := tinySweep(KernelStates)
	return base, campaign.Grid{
		Base:         base.World,
		Axes:         []campaign.Dimension{campaign.CacheAxis(caches...)},
		Replications: 3,
		BaseSeed:     1,
	}
}

// observe enables a fresh process-global observer for the rest of the
// test. Stream jobs resolve their instruments when built, so call it
// before StreamJobs.
func observe(t *testing.T) *obs.Observer {
	t.Helper()
	o := obs.New(obs.Options{})
	obs.Enable(o)
	t.Cleanup(obs.Disable)
	return o
}

func reusedCount(o *obs.Observer) uint64 {
	return o.Metrics().Counter("harness_replications_reused_total").Value()
}

// streamRun is one campaign's observable output: per-job results, the
// store the payloads went to, and the CSV shard files.
type streamRun struct {
	res    []campaign.Result
	st     *store.Store
	shards map[string][]byte
}

// runStreamJobs runs jobs into a fresh CSV shard sink. A nil store in cc
// gets a fresh one.
func runStreamJobs(t *testing.T, cc campaign.Config, jobs []campaign.Job) streamRun {
	t.Helper()
	if cc.Store == nil {
		cc.Store = openStore(t)
	}
	st := cc.Store
	if w, ok := st.(*missOnceStore); ok {
		st = w.Store
	}
	dir := filepath.Join(t.TempDir(), "rows")
	sink, err := results.NewCSVShardSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	cc.Sink = sink
	res, err := campaign.Run(context.Background(), cc, jobs)
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return streamRun{res: res, st: st.(*store.Store), shards: readDirFiles(t, dir)}
}

func openStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func mustGet(t *testing.T, st *store.Store, j campaign.Job) []byte {
	t.Helper()
	data, ok, err := st.Get(j.Key, j.Hash)
	if err != nil || !ok {
		t.Fatalf("%s: no payload (ok=%v, err=%v)", j.Key, ok, err)
	}
	return data
}

// aloneRun is one scenario's output when its job runs by itself.
type aloneRun struct {
	payload []byte // stored checkpoint
	point   []byte // gob-encoded GridPoint
	shards  map[string][]byte
}

// runAlone runs every scenario of the grid through StreamJob on its own.
func runAlone(t *testing.T, base SweepConfig, scs []campaign.Scenario) map[string]aloneRun {
	t.Helper()
	out := map[string]aloneRun{}
	for _, sc := range scs {
		j := StreamJob(base, sc)
		r := runStreamJobs(t, campaign.Config{Workers: 1}, []campaign.Job{j})
		point, err := encodeGob(r.res[0].Value.(GridPoint))
		if err != nil {
			t.Fatal(err)
		}
		out[sc.Key] = aloneRun{payload: mustGet(t, r.st, j), point: point, shards: r.shards}
	}
	return out
}

// checkAgainstAlone requires a grid campaign's output to equal, job by
// job, what each job produces alone: the stored payload (point, rows,
// spec and marker), the gob-encoded GridPoint, the decoded rows, and the
// complete set of CSV shards.
func checkAgainstAlone(t *testing.T, label string, jobs []campaign.Job, r streamRun, alone map[string]aloneRun) {
	t.Helper()
	want := map[string][]byte{}
	for i, j := range jobs {
		a := alone[j.Key]
		for name, data := range a.shards {
			want[name] = data
		}
		payload, ok, err := r.st.Get(j.Key, j.Hash)
		if err != nil || !ok {
			t.Errorf("%s: %s stored no payload (ok=%v, err=%v)", label, j.Key, ok, err)
			continue
		}
		if !bytes.Equal(payload, a.payload) {
			t.Errorf("%s: %s stored payload differs from the job run alone", label, j.Key)
		}
		got, err := decodeGob[gridCheckpoint](payload)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := decodeGob[gridCheckpoint](a.payload)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Rows, ref.Rows) {
			t.Errorf("%s: %s rows differ from the job run alone", label, j.Key)
		}
		point, err := encodeGob(r.res[i].Value.(GridPoint))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(point, a.point) {
			t.Errorf("%s: %s gob-encoded GridPoint differs from the job run alone", label, j.Key)
		}
	}
	if len(r.shards) != len(want) {
		t.Errorf("%s: %d shards, want %d", label, len(r.shards), len(want))
	}
	for name, data := range want {
		if !bytes.Equal(r.shards[name], data) {
			t.Errorf("%s: shard %s differs from the jobs run alone", label, name)
		}
	}
}

// rewriteWithoutMarker rewrites a stored grid checkpoint as a payload
// written before the zero-draw marker existed, and returns it.
func rewriteWithoutMarker(t *testing.T, st *store.Store, j campaign.Job) []byte {
	t.Helper()
	ck, err := decodeGob[gridCheckpoint](mustGet(t, st, j))
	if err != nil {
		t.Fatal(err)
	}
	if !ck.ZeroDraw {
		t.Fatalf("%s: States payload lacks the zero-draw marker", j.Key)
	}
	ck.ZeroDraw = false
	data, err := encodeGob(ck)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(j.Key, j.Hash, data); err != nil {
		t.Fatal(err)
	}
	return data
}

// missOnceStore hides one key's payload from the campaign's first store
// lookup, reproducing the race in which another process stores the job
// between this campaign's lookup and its claim: the lease then reports
// ClaimDone and the campaign decodes the payload through that path.
type missOnceStore struct {
	campaign.Store
	key    string
	missed atomic.Bool
}

func (s *missOnceStore) Get(key, hash string) ([]byte, bool, error) {
	if key == s.key && s.missed.CompareAndSwap(false, true) {
		return nil, false, nil
	}
	return s.Store.Get(key, hash)
}

func TestReplicaReuseMatchesStandalone(t *testing.T) {
	base, grid := reuseGrid(128, 512)
	scs, err := grid.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	alone := runAlone(t, base, scs)
	for _, workers := range []int{1, 4} {
		o := observe(t)
		jobs, err := StreamJobs(base, grid)
		if err != nil {
			t.Fatal(err)
		}
		for i, sc := range scs {
			r0 := scs[i-sc.Replication].Key
			if sc.Replication > 0 && !reflect.DeepEqual(jobs[i].After, []string{r0}) {
				t.Errorf("%s: After = %v, want [%s]", sc.Key, jobs[i].After, r0)
			}
		}
		r := runStreamJobs(t, campaign.Config{Workers: workers}, jobs)
		label := fmt.Sprintf("workers=%d", workers)
		checkAgainstAlone(t, label, jobs, r, alone)
		// Two cache sizes times replications r1 and r2.
		if n := reusedCount(o); n != 4 {
			t.Errorf("%s: %d replications reused, want 4", label, n)
		}
		spans := 0
		for _, ev := range o.Tracer().Export().TraceEvents {
			if ev.Cat == "reuse" {
				spans++
				if from, _ := ev.Args["from"].(string); from == "" || from == ev.Name {
					t.Errorf("%s: reuse span %s names source %q", label, ev.Name, from)
				}
			}
		}
		if spans != 4 {
			t.Errorf("%s: %d reuse spans in the trace, want 4", label, spans)
		}
	}
}

// TestReplicaReuseAfterResume covers an r0 decoded from the store: only
// r0 ran before the campaign resumed, so r1 and r2 copy the decoded
// payload.
func TestReplicaReuseAfterResume(t *testing.T) {
	base, grid := reuseGrid(128)
	scs, err := grid.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	alone := runAlone(t, base, scs)
	st := openStore(t)
	runStreamJobs(t, campaign.Config{Workers: 1, Store: st}, []campaign.Job{StreamJob(base, scs[0])})

	o := observe(t)
	jobs, err := StreamJobs(base, grid)
	if err != nil {
		t.Fatal(err)
	}
	r := runStreamJobs(t, campaign.Config{Workers: 2, Store: st}, jobs)
	checkAgainstAlone(t, "resume", jobs, r, alone)
	for i, res := range r.res {
		if want := i == 0; res.Cached != want {
			t.Errorf("%s: Cached = %v, want %v", res.Key, res.Cached, want)
		}
	}
	if n := reusedCount(o); n != 2 {
		t.Errorf("%d replications reused after resume, want 2", n)
	}
}

// TestReplicaRunsInFullWithoutMarker covers a store written before the
// zero-draw marker existed: its r0 payload says nothing about draws, so
// the replications run their sweeps in full.
func TestReplicaRunsInFullWithoutMarker(t *testing.T) {
	base, grid := reuseGrid(128)
	scs, err := grid.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	alone := runAlone(t, base, scs)
	st := openStore(t)
	r0 := StreamJob(base, scs[0])
	runStreamJobs(t, campaign.Config{Workers: 1, Store: st}, []campaign.Job{r0})
	a := alone[r0.Key]
	a.payload = rewriteWithoutMarker(t, st, r0)
	alone[r0.Key] = a

	o := observe(t)
	jobs, err := StreamJobs(base, grid)
	if err != nil {
		t.Fatal(err)
	}
	r := runStreamJobs(t, campaign.Config{Workers: 2, Store: st}, jobs)
	checkAgainstAlone(t, "no marker", jobs, r, alone)
	if n := reusedCount(o); n != 0 {
		t.Errorf("%d replications reused an unmarked r0 payload, want 0", n)
	}
}

// TestReplicaReuseAfterClaimDone covers an r0 completed by another
// process: worker "a" runs r0 under its lease; worker "b" misses r0 in
// its store lookup, is told ClaimDone by the lease protocol, decodes r0
// and copies it into r1 and r2. Every job still executes exactly once
// across the two workers, reused ones included.
func TestReplicaReuseAfterClaimDone(t *testing.T) {
	base, grid := reuseGrid(128)
	scs, err := grid.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	alone := runAlone(t, base, scs)
	st := openStore(t)
	a, err := lease.Open(st, "a", lease.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := lease.Open(st, "b", lease.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	runStreamJobs(t, campaign.Config{Workers: 1, Store: st, Claimer: a}, []campaign.Job{StreamJob(base, scs[0])})

	o := observe(t)
	jobs, err := StreamJobs(base, grid)
	if err != nil {
		t.Fatal(err)
	}
	hide := &missOnceStore{Store: st, key: scs[0].Key}
	r := runStreamJobs(t, campaign.Config{Workers: 2, Store: hide, Claimer: b}, jobs)
	if !hide.missed.Load() || !r.res[0].Cached {
		t.Fatalf("r0 did not arrive through ClaimDone (missed=%v, cached=%v)", hide.missed.Load(), r.res[0].Cached)
	}
	checkAgainstAlone(t, "claim done", jobs, r, alone)
	if n := reusedCount(o); n != 2 {
		t.Errorf("%d replications reused after ClaimDone, want 2", n)
	}
	audit, err := lease.ReadAudit(st)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		want := "b"
		if i == 0 {
			want = "a"
		}
		if owners := audit[j.Key]; len(owners) != 1 || owners[0] != want {
			t.Errorf("%s executed by %v, want %s exactly once", j.Key, owners, want)
		}
	}
}

// TestReplicaReuseNegative pins where reuse must not happen: a Godunov
// grid's replications stay independent and run in full (its r0 world
// draws the random shock positions), and a States grid under the
// optimistic scheduler runs every replication because its spec row is
// wall-clock dependent.
func TestReplicaReuseNegative(t *testing.T) {
	t.Run("godunov", func(t *testing.T) {
		base := tinySweep(KernelGodunov)
		grid := campaign.Grid{
			Base: base.World, Axes: []campaign.Dimension{campaign.CacheAxis(128)},
			Replications: 2, BaseSeed: 1,
		}
		scs, err := grid.Scenarios()
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := scenarioSweepConfig(base, scs[0])
		if err != nil {
			t.Fatal(err)
		}
		sw, err := RunSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sw.draws == 0 {
			t.Error("Godunov r0 world drew no random numbers")
		}
		o := observe(t)
		jobs, err := StreamJobs(base, grid)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			if len(j.After) != 0 {
				t.Errorf("%s: Godunov job waits on %v", j.Key, j.After)
			}
		}
		r := runStreamJobs(t, campaign.Config{Workers: 2}, jobs)
		if n := reusedCount(o); n != 0 {
			t.Errorf("%d Godunov replications reused, want 0", n)
		}
		if ck, err := decodeGob[gridCheckpoint](mustGet(t, r.st, jobs[0])); err != nil || ck.ZeroDraw {
			t.Errorf("Godunov r0 payload marked zero-draw (err=%v)", err)
		}
	})
	t.Run("opt", func(t *testing.T) {
		base, grid := reuseGrid(128)
		base.World.Sched = mpi.OptimisticParallel
		grid.Base = base.World
		grid.Replications = 2
		o := observe(t)
		jobs, err := StreamJobs(base, grid)
		if err != nil {
			t.Fatal(err)
		}
		runStreamJobs(t, campaign.Config{Workers: 2}, jobs)
		if n := reusedCount(o); n != 0 {
			t.Errorf("%d optimistic replications reused, want 0", n)
		}
	})
}
