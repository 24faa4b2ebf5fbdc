package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
)

// refsJSON holds the reference output digests recorded from the code the
// benchmark was written against: workload -> input key -> output -> sha256.
// Regenerate it with -record (see README.md); a change that keeps every
// simulated statistic identical leaves it untouched.
//
//go:embed refs.json
var refsJSON []byte

// refs compares output digests against the recorded references, or, in
// record mode, collects them. It is safe for concurrent use: the table is
// read-only outside record mode, and record mode locks it.
type refs struct {
	mu     sync.Mutex
	record bool
	table  map[string]map[string]map[string]string
}

// loadRefs parses the embedded reference table.
func loadRefs(data []byte, record bool) (*refs, error) {
	r := &refs{record: record, table: map[string]map[string]map[string]string{}}
	if record {
		return r, nil
	}
	if err := json.Unmarshal(data, &r.table); err != nil {
		return nil, fmt.Errorf("reference digests: %w", err)
	}
	return r, nil
}

// digest is the hex sha256 of data.
func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// check reports whether output name of workload input key has the
// recorded digest. In record mode it stores the digest and reports true,
// unless a different digest was already stored for the same output,
// which means the workload is not deterministic.
func (r *refs) check(workload, key, name string, data []byte) bool {
	d := digest(data)
	if r.record {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	byKey := r.table[workload]
	if byKey == nil {
		if !r.record {
			return false
		}
		byKey = map[string]map[string]string{}
		r.table[workload] = byKey
	}
	outs := byKey[key]
	if outs == nil {
		if !r.record {
			return false
		}
		outs = map[string]string{}
		byKey[key] = outs
	}
	want, ok := outs[name]
	if !ok && r.record {
		outs[name] = d
		return true
	}
	return ok && want == d
}

// merge writes the recorded digests of workload into the reference file
// at path, keeping the other workloads' entries.
func (r *refs) merge(path, workload string) error {
	table := map[string]map[string]map[string]string{}
	if data, err := os.ReadFile(path); err == nil && len(data) > 0 {
		if err := json.Unmarshal(data, &table); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	r.mu.Lock()
	table[workload] = r.table[workload]
	r.mu.Unlock()
	data, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
