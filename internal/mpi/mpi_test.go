package mpi

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/netmodel"
)

// testConfig returns a small, quiet (noise-free) world for exact assertions.
func testConfig(p int) WorldConfig {
	cfg := DefaultConfig()
	cfg.Procs = p
	cfg.Net.NoiseSigma = 0
	return cfg
}

func TestRunExecutesEveryRank(t *testing.T) {
	w := NewWorld(testConfig(4))
	var mu sync.Mutex
	seen := map[int]bool{}
	err := w.Run(func(r *Rank) {
		mu.Lock()
		seen[r.Rank()] = true
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Errorf("ranks seen = %v, want 4", seen)
	}
}

func TestNewWorldInvalidSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWorld(0 ranks) did not panic")
		}
	}()
	NewWorld(WorldConfig{Procs: 0})
}

func TestSendRecvTransfersData(t *testing.T) {
	w := NewWorld(testConfig(2))
	var got []float64
	err := w.Run(func(r *Rank) {
		switch r.Rank() {
		case 0:
			r.Comm.Send(1, 7, []float64{1, 2, 3})
		case 1:
			buf := make([]float64, 3)
			n := r.Comm.Recv(0, 7, buf)
			if n != 3 {
				t.Errorf("Recv n = %d, want 3", n)
			}
			got = buf
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("received %v, want [1 2 3]", got)
	}
}

func TestRecvWaitsForVirtualArrival(t *testing.T) {
	cfg := testConfig(2)
	w := NewWorld(cfg)
	var recvDone float64
	err := w.Run(func(r *Rank) {
		switch r.Rank() {
		case 0:
			r.Proc.Advance(1000) // sender is late
			r.Comm.Send(1, 0, []float64{42})
		case 1:
			buf := make([]float64, 1)
			r.Comm.Recv(0, 0, buf)
			recvDone = r.Proc.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Receiver must end past sender departure (1000) plus network latency.
	if recvDone < 1000+cfg.Net.LatencyUS {
		t.Errorf("receive completed at %g, want >= %g", recvDone, 1000+cfg.Net.LatencyUS)
	}
}

func TestMessageOrderingFIFO(t *testing.T) {
	w := NewWorld(testConfig(2))
	var got []float64
	err := w.Run(func(r *Rank) {
		switch r.Rank() {
		case 0:
			for i := 0; i < 5; i++ {
				r.Comm.Send(1, 3, []float64{float64(i)})
			}
		case 1:
			buf := make([]float64, 1)
			for i := 0; i < 5; i++ {
				r.Comm.Recv(0, 3, buf)
				got = append(got, buf[0])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != float64(i) {
			t.Fatalf("messages out of order: %v", got)
		}
	}
}

func TestTagSelectivity(t *testing.T) {
	w := NewWorld(testConfig(2))
	err := w.Run(func(r *Rank) {
		switch r.Rank() {
		case 0:
			r.Comm.Send(1, 1, []float64{1})
			r.Comm.Send(1, 2, []float64{2})
		case 1:
			buf := make([]float64, 1)
			r.Comm.Recv(0, 2, buf) // take tag-2 first
			if buf[0] != 2 {
				t.Errorf("tag 2 recv got %g", buf[0])
			}
			r.Comm.Recv(0, 1, buf)
			if buf[0] != 1 {
				t.Errorf("tag 1 recv got %g", buf[0])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnySourceAndAnyTag(t *testing.T) {
	w := NewWorld(testConfig(3))
	err := w.Run(func(r *Rank) {
		switch r.Rank() {
		case 0, 1:
			r.Comm.Send(2, 10+r.Rank(), []float64{float64(r.Rank())})
		case 2:
			buf := make([]float64, 1)
			sum := 0.0
			for i := 0; i < 2; i++ {
				r.Comm.Recv(AnySource, AnyTag, buf)
				sum += buf[0]
			}
			if sum != 1 {
				t.Errorf("AnySource sum = %g, want 1 (ranks 0+1)", sum)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsendIrecvWaitall(t *testing.T) {
	w := NewWorld(testConfig(2))
	err := w.Run(func(r *Rank) {
		switch r.Rank() {
		case 0:
			a := r.Comm.Isend(1, 0, []float64{5})
			b := r.Comm.Isend(1, 1, []float64{6})
			r.Comm.Waitall([]*Request{a, b})
		case 1:
			b0 := make([]float64, 1)
			b1 := make([]float64, 1)
			r0 := r.Comm.Irecv(0, 0, b0)
			r1 := r.Comm.Irecv(0, 1, b1)
			r.Comm.Waitall([]*Request{r1, r0})
			if b0[0] != 5 || b1[0] != 6 {
				t.Errorf("got %g/%g, want 5/6", b0[0], b1[0])
			}
			if !r0.Done() || !r1.Done() {
				t.Error("requests not marked done")
			}
			if r0.Count() != 1 {
				t.Errorf("Count = %d, want 1", r0.Count())
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWaitsomeCompletesAvailable(t *testing.T) {
	w := NewWorld(testConfig(3))
	err := w.Run(func(r *Rank) {
		switch r.Rank() {
		case 0:
			r.Comm.Send(2, 0, []float64{1})
		case 1:
			r.Proc.Advance(5_000_000) // very late sender
			r.Comm.Send(2, 1, []float64{2})
		case 2:
			b0 := make([]float64, 1)
			b1 := make([]float64, 1)
			reqs := []*Request{
				r.Comm.Irecv(0, 0, b0),
				r.Comm.Irecv(1, 1, b1),
			}
			completed := map[int]bool{}
			for len(completed) < 2 {
				idx := r.Comm.Waitsome(reqs)
				if idx == nil {
					t.Fatal("Waitsome returned nil with pending requests")
				}
				for _, i := range idx {
					if completed[i] {
						t.Errorf("request %d completed twice", i)
					}
					completed[i] = true
				}
			}
			if b0[0] != 1 || b1[0] != 2 {
				t.Errorf("payloads %g/%g, want 1/2", b0[0], b1[0])
			}
			// Final clock must reflect the late sender.
			if r.Proc.Now() < 5_000_000 {
				t.Errorf("rank 2 clock %g did not wait for late sender", r.Proc.Now())
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWaitsomeNilWhenNothingPending(t *testing.T) {
	w := NewWorld(testConfig(1))
	err := w.Run(func(r *Rank) {
		if got := r.Comm.Waitsome(nil); got != nil {
			t.Errorf("Waitsome(nil) = %v, want nil", got)
		}
		done := &Request{done: true}
		if got := r.Comm.Waitsome([]*Request{done}); got != nil {
			t.Errorf("Waitsome(all done) = %v, want nil", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCancelPreventsCompletion(t *testing.T) {
	w := NewWorld(testConfig(2))
	err := w.Run(func(r *Rank) {
		switch r.Rank() {
		case 0:
			// sends nothing
		case 1:
			buf := make([]float64, 1)
			req := r.Comm.Irecv(0, 9, buf)
			r.Comm.Cancel(req)
			if !req.Canceled() {
				t.Error("request not canceled")
			}
			// Waiting on a canceled request must not block.
			r.Comm.Wait(req)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvTruncationPanics(t *testing.T) {
	w := NewWorld(testConfig(2))
	err := w.Run(func(r *Rank) {
		switch r.Rank() {
		case 0:
			r.Comm.Send(1, 0, []float64{1, 2, 3, 4})
		case 1:
			small := make([]float64, 2)
			r.Comm.Recv(0, 0, small)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("expected truncation panic, got %v", err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	w := NewWorld(testConfig(2))
	err := w.Run(func(r *Rank) {
		buf := make([]float64, 1)
		r.Comm.Recv(1-r.Rank(), 0, buf) // both receive, nobody sends
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected deadlock error, got %v", err)
	}
}

func TestBodyPanicPropagates(t *testing.T) {
	w := NewWorld(testConfig(2))
	err := w.Run(func(r *Rank) {
		if r.Rank() == 1 {
			panic("application failure")
		}
		// rank 0 blocks forever; the abort must unstick it
		buf := make([]float64, 1)
		r.Comm.Recv(1, 0, buf)
	})
	if err == nil || !strings.Contains(err.Error(), "application failure") {
		t.Fatalf("expected body panic to propagate, got %v", err)
	}
}

func TestAllreduceSumAndMax(t *testing.T) {
	w := NewWorld(testConfig(3))
	err := w.Run(func(r *Rank) {
		in := []float64{float64(r.Rank() + 1), float64(10 * (r.Rank() + 1))}
		sum := r.Comm.Allreduce(OpSum, in)
		if sum[0] != 6 || sum[1] != 60 {
			t.Errorf("rank %d Allreduce sum = %v, want [6 60]", r.Rank(), sum)
		}
		mx := r.Comm.Allreduce(OpMax, in)
		if mx[0] != 3 || mx[1] != 30 {
			t.Errorf("rank %d Allreduce max = %v, want [3 30]", r.Rank(), mx)
		}
		mn := r.Comm.Allreduce(OpMin, in)
		if mn[0] != 1 || mn[1] != 10 {
			t.Errorf("rank %d Allreduce min = %v", r.Rank(), mn)
		}
		pr := r.Comm.Allreduce(OpProd, []float64{float64(r.Rank() + 1)})
		if pr[0] != 6 {
			t.Errorf("rank %d Allreduce prod = %v, want 6", r.Rank(), pr)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceSynchronizesClocks(t *testing.T) {
	w := NewWorld(testConfig(3))
	var ends [3]float64
	err := w.Run(func(r *Rank) {
		r.Proc.Advance(float64(r.Rank()) * 100)
		r.Comm.Allreduce(OpSum, []float64{1})
		ends[r.Rank()] = r.Proc.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	// All ranks leave the collective at (nearly) the same time: the stragglers
	// set the pace. Post-collective bookkeeping differs only by timer stops.
	if ends[0] < 200 || ends[1] < 200 || ends[2] < 200 {
		t.Errorf("collective leave times %v; all must be >= straggler time 200", ends)
	}
	if math.Abs(ends[0]-ends[2]) > 1.0 {
		t.Errorf("leave times diverge: %v", ends)
	}
}

func TestReduceOnlyRootGetsResult(t *testing.T) {
	w := NewWorld(testConfig(3))
	err := w.Run(func(r *Rank) {
		res := r.Comm.Reduce(OpSum, 1, []float64{1})
		if r.Rank() == 1 {
			if res == nil || res[0] != 3 {
				t.Errorf("root result = %v, want [3]", res)
			}
		} else if res != nil {
			t.Errorf("non-root rank %d got result %v", r.Rank(), res)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcast(t *testing.T) {
	w := NewWorld(testConfig(3))
	err := w.Run(func(r *Rank) {
		buf := make([]float64, 2)
		if r.Rank() == 2 {
			buf[0], buf[1] = 7, 8
		}
		r.Comm.Bcast(2, buf)
		if buf[0] != 7 || buf[1] != 8 {
			t.Errorf("rank %d Bcast buf = %v, want [7 8]", r.Rank(), buf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherOrder(t *testing.T) {
	w := NewWorld(testConfig(3))
	err := w.Run(func(r *Rank) {
		out := r.Comm.Allgather([]float64{float64(r.Rank()), float64(r.Rank() * 10)})
		want := []float64{0, 0, 1, 10, 2, 20}
		if len(out) != len(want) {
			t.Fatalf("Allgather len = %d, want %d", len(out), len(want))
		}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("Allgather = %v, want %v", out, want)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierMakesClocksMeet(t *testing.T) {
	w := NewWorld(testConfig(2))
	err := w.Run(func(r *Rank) {
		if r.Rank() == 0 {
			r.Proc.Advance(500)
		}
		r.Comm.Barrier()
		if r.Proc.Now() < 500 {
			t.Errorf("rank %d left barrier at %g, before straggler at 500", r.Rank(), r.Proc.Now())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDupIsolatesMessageSpace(t *testing.T) {
	w := NewWorld(testConfig(2))
	err := w.Run(func(r *Rank) {
		dup := r.Comm.Dup()
		switch r.Rank() {
		case 0:
			r.Comm.Send(1, 5, []float64{1}) // world message
			dup.Send(1, 5, []float64{2})    // dup message, same tag
		case 1:
			buf := make([]float64, 1)
			dup.Recv(0, 5, buf)
			if buf[0] != 2 {
				t.Errorf("dup recv got %g, want 2 (world message must not match)", buf[0])
			}
			r.Comm.Recv(0, 5, buf)
			if buf[0] != 1 {
				t.Errorf("world recv got %g, want 1", buf[0])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommCreateSubgroup(t *testing.T) {
	w := NewWorld(testConfig(3))
	err := w.Run(func(r *Rank) {
		sub := r.Comm.CommCreate([]int{0, 2})
		switch r.Rank() {
		case 1:
			if sub != nil {
				t.Error("rank 1 should get nil sub-communicator")
			}
		case 0:
			if sub.Rank() != 0 || sub.Size() != 2 {
				t.Errorf("rank 0 sub rank/size = %d/%d", sub.Rank(), sub.Size())
			}
			sub.Send(1, 0, []float64{9})
		case 2:
			if sub.Rank() != 1 {
				t.Errorf("rank 2 sub rank = %d, want 1", sub.Rank())
			}
			buf := make([]float64, 1)
			sub.Recv(0, 0, buf)
			if buf[0] != 9 {
				t.Errorf("sub recv = %g, want 9", buf[0])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommCreateUnsortedPanics(t *testing.T) {
	w := NewWorld(testConfig(2))
	err := w.Run(func(r *Rank) {
		r.Comm.CommCreate([]int{1, 0})
	})
	if err == nil || !strings.Contains(err.Error(), "sorted") {
		t.Fatalf("expected sorted-group panic, got %v", err)
	}
}

func TestCollectiveMismatchPanics(t *testing.T) {
	w := NewWorld(testConfig(2))
	err := w.Run(func(r *Rank) {
		if r.Rank() == 0 {
			r.Comm.Barrier()
		} else {
			r.Comm.Allreduce(OpSum, []float64{1})
		}
	})
	if err == nil || !strings.Contains(err.Error(), "collective mismatch") {
		t.Fatalf("expected collective mismatch, got %v", err)
	}
}

func TestMPITimersRecorded(t *testing.T) {
	w := NewWorld(testConfig(2))
	err := w.Run(func(r *Rank) {
		r.Comm.Init()
		if r.Rank() == 0 {
			r.Comm.Send(1, 0, []float64{1})
		} else {
			buf := make([]float64, 1)
			r.Comm.Recv(0, 0, buf)
		}
		r.Comm.Barrier()
		r.Comm.Wtime()
		r.Comm.KeyvalCreate()
		r.Comm.ErrhandlerSet()
		r.Comm.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	prof := w.Profiles()[0]
	for _, name := range []string{"MPI_Init()", "MPI_Send()", "MPI_Barrier()", "MPI_Wtime()", "MPI_Keyval_create()", "MPI_Errhandler_set()", "MPI_Finalize()"} {
		tm := prof.Lookup(name)
		if tm == nil || tm.Calls() == 0 {
			t.Errorf("timer %s not recorded on rank 0", name)
		}
		if tm != nil && tm.Group() != "MPI" {
			t.Errorf("timer %s in group %q, want MPI", name, tm.Group())
		}
	}
	if w.Profiles()[1].Lookup("MPI_Recv()") == nil {
		t.Error("MPI_Recv() timer missing on rank 1")
	}
	if got := prof.GroupInclusive("MPI"); got <= 0 {
		t.Errorf("GroupInclusive(MPI) = %g, want > 0", got)
	}
}

func TestMessageSizeEvents(t *testing.T) {
	w := NewWorld(testConfig(2))
	err := w.Run(func(r *Rank) {
		if r.Rank() == 0 {
			r.Comm.Send(1, 0, make([]float64, 16))
		} else {
			r.Comm.Recv(0, 0, make([]float64, 16))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	e := w.Profiles()[0].Event("Message size sent")
	if e == nil || e.Count() != 1 || e.Mean() != 128 {
		t.Errorf("sender event = %+v, want count 1 mean 128 bytes", e)
	}
	re := w.Profiles()[1].Event("Message size received")
	if re == nil || re.Mean() != 128 {
		t.Errorf("receiver event missing or wrong: %+v", re)
	}
}

// exchangePattern runs a representative multi-phase communication pattern
// and returns the final per-rank clocks.
func exchangePattern(t *testing.T, seed int64) []float64 {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Procs = 3
	cfg.Seed = seed
	w := NewWorld(cfg)
	err := w.Run(func(r *Rank) {
		r.Comm.Init()
		p := r.Comm.Size()
		me := r.Rank()
		for step := 0; step < 4; step++ {
			var reqs []*Request
			bufs := make([][]float64, p)
			for peer := 0; peer < p; peer++ {
				if peer == me {
					continue
				}
				bufs[peer] = make([]float64, 64)
				reqs = append(reqs, r.Comm.Irecv(peer, step, bufs[peer]))
			}
			payload := make([]float64, 64)
			for peer := 0; peer < p; peer++ {
				if peer == me {
					continue
				}
				reqs = append(reqs, r.Comm.Isend(peer, step, payload))
			}
			for {
				idx := r.Comm.Waitsome(reqs)
				if idx == nil {
					break
				}
			}
			r.Proc.ChargeFlops(1000 * (me + 1)) // imbalanced compute
		}
		r.Comm.Allreduce(OpSum, []float64{1})
		r.Comm.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 3)
	for i, p := range w.Procs() {
		out[i] = p.Now()
	}
	return out
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := exchangePattern(t, 5)
	b := exchangePattern(t, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("rank %d clock differs across identical runs: %.9g vs %.9g", i, a[i], b[i])
		}
	}
	c := exchangePattern(t, 6)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical clocks; noise not seeded")
	}
}

func TestSendToSelf(t *testing.T) {
	w := NewWorld(testConfig(1))
	err := w.Run(func(r *Rank) {
		r.Comm.Send(0, 0, []float64{3.14})
		buf := make([]float64, 1)
		r.Comm.Recv(0, 0, buf)
		if buf[0] != 3.14 {
			t.Errorf("self message = %g", buf[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInvalidPeerPanics(t *testing.T) {
	w := NewWorld(testConfig(2))
	err := w.Run(func(r *Rank) {
		if r.Rank() == 0 {
			r.Comm.Send(5, 0, []float64{1})
		}
	})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("expected out-of-range panic, got %v", err)
	}
}

func TestWtimeAdvances(t *testing.T) {
	w := NewWorld(testConfig(1))
	err := w.Run(func(r *Rank) {
		t0 := r.Comm.Wtime()
		r.Proc.Advance(1e6) // one virtual second
		t1 := r.Comm.Wtime()
		if d := t1 - t0; math.Abs(d-1.0) > 0.01 {
			t.Errorf("Wtime delta = %g s, want ~1", d)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNoiseAffectsArrival(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Procs = 2
	cfg.Net = netmodel.Model{LatencyUS: 50, BytesPerUS: 10, NoiseSigma: 0.5, SoftwareUS: 1}
	w := NewWorld(cfg)
	var times []float64
	err := w.Run(func(r *Rank) {
		if r.Rank() == 0 {
			for i := 0; i < 10; i++ {
				r.Comm.Send(1, 0, make([]float64, 100))
			}
		} else {
			buf := make([]float64, 100)
			for i := 0; i < 10; i++ {
				t0 := r.Proc.Now()
				r.Comm.Recv(0, 0, buf)
				times = append(times, r.Proc.Now()-t0)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[float64]bool{}
	for _, d := range times {
		distinct[d] = true
	}
	if len(distinct) < 5 {
		t.Errorf("network noise produced only %d distinct receive costs", len(distinct))
	}
}

// TestRandomDrawsCountsEveryStream pins the world's draw accounting: a
// collective under a noisy network draws from the shared collective-noise
// stream (never from a rank's stream), a noisy send draws from the
// sender's stream, and a world that makes no MPI call — or runs over a
// noise-free network — draws nothing. The count is a property of the
// simulation, so every scheduler reports the same one.
func TestRandomDrawsCountsEveryStream(t *testing.T) {
	for _, mode := range []SchedulerMode{Serial, ConservativeParallel, OptimisticParallel} {
		run := func(cfg WorldConfig, body func(*Rank)) *World {
			t.Helper()
			cfg.Sched = mode
			w := NewWorld(cfg)
			if err := w.Run(body); err != nil {
				t.Fatal(err)
			}
			return w
		}
		if n := run(DefaultConfig(), func(*Rank) {}).RandomDraws(); n != 0 {
			t.Errorf("%s: world without MPI calls drew %d numbers, want 0", mode, n)
		}
		barrier := func(r *Rank) { r.Comm.Barrier() }
		if n := run(testConfig(3), barrier).RandomDraws(); n != 0 {
			t.Errorf("%s: barrier over a noise-free network drew %d numbers, want 0", mode, n)
		}
		noisy := run(DefaultConfig(), barrier)
		for _, p := range noisy.Procs() {
			if n := p.RNGDraws(); n != 0 {
				t.Errorf("%s: barrier drew %d numbers from rank %d's stream, want 0", mode, n, p.Rank())
			}
		}
		if n := noisy.RandomDraws(); n == 0 {
			t.Errorf("%s: barrier under a noisy network reported no collective-noise draws", mode)
		}
		send := run(DefaultConfig(), func(r *Rank) {
			switch r.Rank() {
			case 0:
				r.Comm.Send(1, 0, []float64{1})
			case 1:
				r.Comm.Recv(0, 0, make([]float64, 1))
			}
		})
		if n := send.Procs()[0].RNGDraws(); n == 0 || send.RandomDraws() != n {
			t.Errorf("%s: noisy send drew %d from the sender's stream, world total %d", mode, n, send.RandomDraws())
		}
	}
}
