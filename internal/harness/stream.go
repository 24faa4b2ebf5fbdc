package harness

import (
	"context"
	"fmt"

	"repro/internal/campaign"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/results"
)

// This file is the bounded-memory grid path: where RunSweepGrid buffers
// every scenario's whole SweepResult, StreamSweepGrid emits each sweep's
// telemetry rows into the campaign sink and keeps only a GridPoint — the
// scenario coordinates and the fitted model — per scenario. A
// thousand-scenario grid therefore streams through a CSV-shard sink with
// memory bounded by the scenarios in flight, not by the grid size.

// GridPoint is one scenario's distilled outcome in a streaming grid run:
// the coordinates, the kernel that was measured (after the flux dimension
// is applied) and the fitted Eq. 1/2 model. The raw sweep is emitted as
// rows and dropped.
type GridPoint struct {
	Scenario campaign.Scenario
	Kernel   Kernel
	Model    *ComponentModel
}

// gridCheckpoint is a stream job's stored payload: the point plus the rows
// it emitted, so a resumed campaign replays the exact same stream. Spec
// carries the sweep's scheduler telemetry so non-serial points replay
// their spec row too (gob tolerates its absence in older payloads, but
// those are invalidated by the "+spec2" hash salt anyway). ZeroDraw marks
// a sweep whose world drew no random numbers, so the scenario's seed
// reached none of its rows; payloads stored before the marker existed
// decode it as false, and their replications simply run in full.
type gridCheckpoint struct {
	Point    GridPoint
	Rows     []results.Row
	Spec     mpi.SpecStats
	ZeroDraw bool
}

// replicaShare hands a States scenario's r0 payload to the scenario's
// later replications. r0's Run or Decode — fresh, resumed from the store,
// or completed by another process and decoded after a lease ClaimDone —
// fills ck before r0 settles; the replications read it only after, since
// each waits on r0 through an After edge. The shared payload is read-only.
type replicaShare struct {
	key string          // r0's job key
	ck  *gridCheckpoint // r0's payload once it settled
	met reuseMetrics
}

// reusable returns r0's payload when replication sc may copy it instead
// of running: r0's world drew no random numbers, so sc's world — the same
// machine under another seed — would reproduce every row, and the spec
// row is not wall-clock dependent (it is under the optimistic scheduler,
// whose replications always run).
func (s *replicaShare) reusable(sc campaign.Scenario) *gridCheckpoint {
	if s == nil || s.key == sc.Key || s.ck == nil || !s.ck.ZeroDraw ||
		sc.World.Sched == mpi.OptimisticParallel {
		return nil
	}
	return s.ck
}

// reuseMetrics records replica reuse. Write-only like every obs
// instrument, and the zero value (observability disabled) records
// nothing.
type reuseMetrics struct {
	reused *obs.Counter
	track  *obs.Track
}

// newReuseMetrics resolves the reuse instruments once per grid.
func newReuseMetrics() reuseMetrics {
	o := obs.Active()
	if o == nil {
		return reuseMetrics{}
	}
	return reuseMetrics{
		reused: o.Metrics().Counter("harness_replications_reused_total"),
		track:  o.Tracer().Track("harness", "replica reuse"),
	}
}

// StreamJob wraps one grid scenario as a bounded-memory campaign job: run
// the sweep, emit its rows to the campaign sink, fit the model, return
// only the GridPoint.
func StreamJob(base SweepConfig, sc campaign.Scenario) campaign.Job {
	return streamJob(base, sc, nil)
}

// streamJob is StreamJob with an optional replica share. The share's r0
// publishes its payload into it; a later replication (After edge on r0)
// copies that payload when reusable allows and runs in full otherwise.
// Either way its key, hash, emitted rows and stored payload are exactly
// those of the job run alone.
func streamJob(base SweepConfig, sc campaign.Scenario, share *replicaShare) campaign.Job {
	// pending hands the emitted telemetry from Run to Encode (the campaign
	// calls them sequentially on the same worker) without making it part
	// of the job's value, which must stay small.
	var pending gridCheckpoint
	publish := func(ck gridCheckpoint) {
		if share != nil && share.key == sc.Key {
			share.ck = &ck
		}
	}
	job := campaign.Job{
		Key:  sc.Key,
		Hash: jobHash(specKind("gridpoint", sc.World), base, sc),
		Encode: func(v any) ([]byte, error) {
			pending.Point = v.(GridPoint)
			data, err := encodeGob(pending)
			pending = gridCheckpoint{}
			return data, err
		},
		Decode: func(ctx context.Context, data []byte) (any, error) {
			ck, err := decodeGob[gridCheckpoint](data)
			if err != nil {
				return nil, err
			}
			// The scenario comes from the current expansion, not the stored
			// payload: the store matched on (key, hash), so it is the same
			// point, and payloads written before the Dimension redesign
			// carry scenarios without coordinates.
			ck.Point.Scenario = sc
			if err := emitCheckpoint(ctx, sc, &ck); err != nil {
				return ck.Point, fmt.Errorf("%w: %w", campaign.ErrReplay, err)
			}
			publish(ck)
			return ck.Point, nil
		},
		Run: func(ctx context.Context, _ map[string]any) (any, error) {
			if r0 := share.reusable(sc); r0 != nil {
				sp := share.met.track.Begin("reuse", sc.Key)
				pending = *r0
				if err := emitCheckpoint(ctx, sc, r0); err != nil {
					return nil, err
				}
				share.met.reused.Inc()
				sp.End(obs.Arg{Name: "from", Value: share.key}, obs.Arg{Name: "rows", Value: len(r0.Rows)})
				return GridPoint{Scenario: sc, Kernel: r0.Point.Kernel, Model: r0.Point.Model}, nil
			}
			cfg, err := scenarioSweepConfig(base, sc)
			if err != nil {
				return nil, err
			}
			sw, err := RunSweep(cfg)
			if err != nil {
				return nil, err
			}
			pending = gridCheckpoint{Rows: sw.Rows(), Spec: sw.Spec, ZeroDraw: sw.draws == 0}
			if err := emitRows(ctx, sc.Key, pending.Rows); err != nil {
				return nil, err
			}
			if err := emitSpecRow(ctx, sc.Key, sw); err != nil {
				return nil, err
			}
			cm, err := FitModels(sw)
			if err != nil {
				return nil, err
			}
			pending.Point = GridPoint{Scenario: sc, Kernel: cfg.Kernel, Model: cm}
			publish(pending)
			return pending.Point, nil
		},
	}
	if share != nil && share.key != sc.Key {
		job.After = []string{share.key}
	}
	return job
}

// emitCheckpoint streams a grid checkpoint's rows, plus its spec row when
// the scenario's world is not serial, under the scenario's key.
func emitCheckpoint(ctx context.Context, sc campaign.Scenario, ck *gridCheckpoint) error {
	if err := emitRows(ctx, sc.Key, ck.Rows); err != nil {
		return err
	}
	return emitSpecRow(ctx, sc.Key, &SweepResult{Config: SweepConfig{World: sc.World}, Spec: ck.Spec})
}

// StreamJobs expands a grid into one StreamJob per scenario. A States
// scenario's replications r>=1 wait on its r0 and copy r0's payload when
// r0's world drew no random numbers (see replicaShare); jobs of the
// data-dependent flux kernels stay independent. The kernel decides, not
// the grid's purpose: a States sweep's cost depends only on patch shapes.
func StreamJobs(base SweepConfig, g campaign.Grid) ([]campaign.Job, error) {
	scs, err := g.Scenarios()
	if err != nil {
		return nil, err
	}
	var met reuseMetrics
	if g.Replications > 1 {
		met = newReuseMetrics()
	}
	jobs := make([]campaign.Job, len(scs))
	// Replications are the innermost expansion axis, so each scenario's
	// replications follow its r0 directly, in replication order.
	var share *replicaShare
	for i, sc := range scs {
		if sc.Replication == 0 {
			share = nil
			if cfg, err := scenarioSweepConfig(base, sc); err == nil && cfg.Kernel == KernelStates {
				share = &replicaShare{key: sc.Key, met: met}
			}
		}
		jobs[i] = streamJob(base, sc, share)
	}
	return jobs, nil
}

// StreamSweepGrid runs a scenario grid with streaming results: each
// scenario's telemetry rows go to cc.Sink (when set) and only the fitted
// GridPoints come back, in scenario order. With cc.Store set the grid is
// checkpointed per scenario: a resumed run re-executes only unfinished
// scenarios and replays the finished ones' rows from the store, so the
// sink output is identical to an uninterrupted run.
func StreamSweepGrid(ctx context.Context, cc campaign.Config, base SweepConfig, g campaign.Grid) ([]GridPoint, error) {
	jobs, err := StreamJobs(base, g)
	if err != nil {
		return nil, err
	}
	res, err := campaign.Run(ctx, cc, jobs)
	if err != nil {
		return nil, err
	}
	out := make([]GridPoint, len(res))
	for i, r := range res {
		out[i] = r.Value.(GridPoint)
	}
	return out, nil
}
