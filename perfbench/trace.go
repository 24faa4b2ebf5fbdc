package main

import (
	"context"
	"encoding/json"
	"maps"
	"os"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/results"
)

// This file is the traced run's instrumentation. Every probe sits outside
// the program: wrappers around the campaign.Store and results.Sink
// interfaces and around each job's Run/Encode/Decode hooks record spans
// and per-layer counts, so the program itself is measured unchanged.

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer started; Parent is the enclosing span's ID (0 for none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and accumulates per-layer values for the
// current pass. It is safe for concurrent use.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]float64
	values map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now()}
}

// reset starts a new pass's per-layer accumulation; spans are kept.
func (t *tracer) reset() {
	t.mu.Lock()
	t.counts = map[string]float64{}
	t.values = map[string]float64{}
	t.mu.Unlock()
}

// begin opens a span and returns its ID.
func (t *tracer) begin(layer, name string, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Layer: layer, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// count adds to an exact per-pass count.
func (t *tracer) count(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// addValue adds to a per-pass measured value (a timing or a ratio), which
// is reported as its median over the traced passes.
func (t *tracer) addValue(name string, v float64) {
	t.mu.Lock()
	t.values[name] += v
	t.mu.Unlock()
}

// addTime adds a duration in seconds to a per-pass measured value.
func (t *tracer) addTime(name string, d time.Duration) { t.addValue(name, d.Seconds()) }

// snapshot returns copies of the current pass's counts and values.
func (t *tracer) snapshot() (counts, values map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return maps.Clone(t.counts), maps.Clone(t.values)
}

// writeSpans writes every recorded span as a JSON array.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedStore wraps a campaign.Store, counting and timing its calls.
type tracedStore struct {
	inner  campaign.Store
	t      *tracer
	parent int
}

func (s *tracedStore) Get(key, hash string) ([]byte, bool, error) {
	id := s.t.begin("store", "get "+key, s.parent)
	data, ok, err := s.inner.Get(key, hash)
	s.t.addTime("store.get_s", s.t.end(id))
	s.t.count("store.gets", 1)
	if ok {
		s.t.count("store.hits", 1)
	}
	return data, ok, err
}

func (s *tracedStore) Put(key, hash string, payload []byte) error {
	id := s.t.begin("store", "put "+key, s.parent)
	err := s.inner.Put(key, hash, payload)
	s.t.addTime("store.put_s", s.t.end(id))
	s.t.count("store.puts", 1)
	s.t.count("store.put_bytes", float64(len(payload)))
	return err
}

// tracedSink wraps a results.Sink. Emits are too many for one span each,
// so they are only counted and timed; Flush and Close get spans.
type tracedSink struct {
	inner  results.Sink
	t      *tracer
	parent int
}

func (s *tracedSink) Emit(key string, row results.Row) error {
	start := time.Now()
	err := s.inner.Emit(key, row)
	s.t.addTime("sink.emit_s", time.Since(start))
	s.t.count("sink.rows", 1)
	return err
}

func (s *tracedSink) Flush() error {
	id := s.t.begin("sink", "flush", s.parent)
	err := s.inner.Flush()
	s.t.addTime("sink.flush_s", s.t.end(id))
	return err
}

func (s *tracedSink) Close() error {
	id := s.t.begin("sink", "close", s.parent)
	err := s.inner.Close()
	s.t.addTime("sink.close_s", s.t.end(id))
	return err
}

// wrapJobs returns copies of jobs whose Run, Encode and Decode hooks each
// record a span under parent. The wrapped hooks call the originals with
// the same arguments, so results are unchanged.
func (t *tracer) wrapJobs(jobs []campaign.Job, parent int) []campaign.Job {
	out := make([]campaign.Job, len(jobs))
	for i, j := range jobs {
		key, run, enc, dec := j.Key, j.Run, j.Encode, j.Decode
		j.Run = func(ctx context.Context, deps map[string]any) (any, error) {
			id := t.begin("campaign", "run "+key, parent)
			defer func() { t.addTime("campaign.run_s", t.end(id)) }()
			return run(ctx, deps)
		}
		if enc != nil {
			j.Encode = func(v any) ([]byte, error) {
				id := t.begin("campaign", "encode "+key, parent)
				defer func() { t.addTime("campaign.encode_s", t.end(id)) }()
				return enc(v)
			}
		}
		if dec != nil {
			j.Decode = func(ctx context.Context, data []byte) (any, error) {
				id := t.begin("campaign", "decode "+key, parent)
				defer func() { t.addTime("campaign.decode_s", t.end(id)) }()
				return dec(ctx, data)
			}
		}
		out[i] = j
	}
	return out
}
