package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"xeon", XeonL2(), true},
		{"direct mapped", Config{SizeBytes: 64 * 1024, LineBytes: 64, Assoc: 1}, true},
		{"fully associative", Config{SizeBytes: 4096, LineBytes: 64, Assoc: 64}, true},
		{"tiny", Config{SizeBytes: 256, LineBytes: 64, Assoc: 2}, true},
		{"zero size", Config{SizeBytes: 0, LineBytes: 64, Assoc: 1}, false},
		{"negative assoc", Config{SizeBytes: 1024, LineBytes: 64, Assoc: -1}, false},
		{"line not pow2", Config{SizeBytes: 1024, LineBytes: 48, Assoc: 2}, false},
		{"size not multiple of line", Config{SizeBytes: 1000, LineBytes: 64, Assoc: 2}, false},
		{"lines not divisible by assoc", Config{SizeBytes: 64 * 3, LineBytes: 64, Assoc: 2}, false},
		{"sets not pow2", Config{SizeBytes: 64 * 12, LineBytes: 64, Assoc: 2}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if (err == nil) != tt.ok {
				t.Fatalf("Validate(%+v) = %v, want ok=%v", tt.cfg, err, tt.ok)
			}
		})
	}
}

func TestXeonGeometry(t *testing.T) {
	cfg := XeonL2()
	if got, want := cfg.Sets(), 1024; got != want {
		t.Errorf("Sets() = %d, want %d", got, want)
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid config did not panic")
		}
	}()
	New(Config{SizeBytes: 100, LineBytes: 64, Assoc: 1})
}

func TestColdMissThenHit(t *testing.T) {
	c := New(XeonL2())
	if c.Access(0x1000) {
		t.Error("first access should miss")
	}
	if !c.Access(0x1000) {
		t.Error("second access to same address should hit")
	}
	if !c.Access(0x1008) {
		t.Error("same-line access should hit")
	}
	st := c.Stats()
	if st.Accesses != 3 || st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 3/2/1", st)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way cache with 2 sets: size = 2*2*64 bytes.
	c := New(Config{SizeBytes: 256, LineBytes: 64, Assoc: 2})
	// Three distinct lines mapping to set 0: line IDs 0, 2, 4 (even => set 0).
	a := uint64(0 * 64)
	b := uint64(2 * 64)
	d := uint64(4 * 64)
	c.Access(a) // miss, {a}
	c.Access(b) // miss, {b,a}
	c.Access(a) // hit,  {a,b}
	c.Access(d) // miss, evicts b => {d,a}
	if !c.Resident(a) {
		t.Error("a should remain resident (was MRU before d)")
	}
	if c.Resident(b) {
		t.Error("b should have been evicted (LRU)")
	}
	if !c.Resident(d) {
		t.Error("d should be resident")
	}
	if c.Access(b) { // must miss again
		t.Error("evicted line b should miss")
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c := New(Config{SizeBytes: 128, LineBytes: 64, Assoc: 1}) // 2 sets
	a := uint64(0)
	b := uint64(128) // same set as a
	c.Access(a)
	c.Access(b) // evicts a
	if c.Access(a) {
		t.Error("direct-mapped conflict: a should have been evicted by b")
	}
}

func TestAccessRangeSequentialMissRate(t *testing.T) {
	c := New(XeonL2())
	// 8 doubles per 64 B line: sequential pass should miss once per line.
	n := 4096
	hits, misses := c.AccessRange(0, n, 8)
	if hits+misses != uint64(n) {
		t.Fatalf("hits+misses = %d, want %d", hits+misses, n)
	}
	if want := uint64(n / 8); misses != want {
		t.Errorf("sequential misses = %d, want %d (one per line)", misses, want)
	}
}

func TestAccessRangeStridedMissRate(t *testing.T) {
	c := New(XeonL2())
	// Stride of one full line: every access a distinct line, all cold misses.
	n := 1024
	hits, misses := c.AccessRange(0, n, 64)
	if hits != 0 || misses != uint64(n) {
		t.Errorf("strided cold pass: hits=%d misses=%d, want 0/%d", hits, misses, n)
	}
}

func TestAccessRangeCacheResidentReuse(t *testing.T) {
	c := New(XeonL2())
	n := 1000 // 8000 B, far below 512 kB
	c.AccessRange(0, n, 8)
	hits, misses := c.AccessRange(0, n, 8)
	if misses != 0 {
		t.Errorf("warm resident pass misses = %d, want 0", misses)
	}
	if hits != uint64(n) {
		t.Errorf("warm resident pass hits = %d, want %d", hits, n)
	}
}

func TestCapacityEviction(t *testing.T) {
	cfg := XeonL2()
	c := New(cfg)
	// Stream 4x the cache capacity sequentially, then re-stream: the first
	// portion must have been evicted, so the second pass misses once per line
	// again (within rounding).
	bytes := 4 * cfg.SizeBytes
	n := bytes / 8
	c.AccessRange(0, n, 8)
	_, misses := c.AccessRange(0, n, 8)
	if want := uint64(n / 8); misses < want/2 {
		t.Errorf("second pass over 4x-capacity stream: misses=%d, want close to %d", misses, want)
	}
}

func TestAccessRangeZeroAndNegative(t *testing.T) {
	c := New(XeonL2())
	if h, m := c.AccessRange(0, 0, 8); h != 0 || m != 0 {
		t.Errorf("n=0: got %d/%d, want 0/0", h, m)
	}
	if h, m := c.AccessRange(0, -5, 8); h != 0 || m != 0 {
		t.Errorf("n<0: got %d/%d, want 0/0", h, m)
	}
	if c.Stats().Accesses != 0 {
		t.Error("no accesses should have been recorded")
	}
}

func TestFlushInvalidates(t *testing.T) {
	c := New(XeonL2())
	c.Access(0x40)
	c.Flush()
	if c.Resident(0x40) {
		t.Error("line resident after Flush")
	}
	st := c.Stats()
	if st.Accesses != 1 {
		t.Errorf("Flush disturbed counters: %+v", st)
	}
}

func TestResetStats(t *testing.T) {
	c := New(XeonL2())
	c.Access(0x40)
	c.ResetStats()
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("stats after reset = %+v, want zero", st)
	}
	if !c.Resident(0x40) {
		t.Error("ResetStats must not invalidate contents")
	}
}

func TestMissRate(t *testing.T) {
	if got := (Stats{}).MissRate(); got != 0 {
		t.Errorf("empty MissRate = %g, want 0", got)
	}
	if got := (Stats{Accesses: 10, Misses: 4}).MissRate(); got != 0.4 {
		t.Errorf("MissRate = %g, want 0.4", got)
	}
}

// Property: for any access sequence, accesses == hits + misses, and
// replaying the identical sequence immediately can only raise the hit count.
func TestPropertyCountsConsistent(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%200) + 1
		c := New(Config{SizeBytes: 4096, LineBytes: 64, Assoc: 2})
		addrs := make([]uint64, n)
		for i := range addrs {
			addrs[i] = uint64(rng.Intn(1 << 16))
		}
		var hits1 uint64
		for _, a := range addrs {
			if c.Access(a) {
				hits1++
			}
		}
		st := c.Stats()
		if st.Accesses != st.Hits+st.Misses || st.Hits != hits1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: a fully-associative cache streaming a working set that fits
// entirely has zero misses on the second pass (LRU inclusion property).
func TestPropertyInclusionSmallWorkingSet(t *testing.T) {
	f := func(nRaw uint8) bool {
		lines := int(nRaw%32) + 1                                      // <= 32 lines
		c := New(Config{SizeBytes: 64 * 64, LineBytes: 64, Assoc: 64}) // 64-line fully assoc
		for i := 0; i < lines; i++ {
			c.Access(uint64(i * 64))
		}
		for i := 0; i < lines; i++ {
			if !c.Access(uint64(i * 64)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: higher associativity never increases misses for a repeated
// small-conflict workload (stack property holds for this access pattern).
func TestAssociativityReducesConflictMisses(t *testing.T) {
	workload := func(c *Cache) uint64 {
		// Two lines that conflict in a direct-mapped cache of 2 sets.
		for i := 0; i < 50; i++ {
			c.Access(0)
			c.Access(128)
		}
		return c.Stats().Misses
	}
	direct := workload(New(Config{SizeBytes: 128, LineBytes: 64, Assoc: 1}))
	assoc := workload(New(Config{SizeBytes: 128, LineBytes: 64, Assoc: 2}))
	if assoc >= direct {
		t.Errorf("2-way misses (%d) should be < direct-mapped misses (%d)", assoc, direct)
	}
	if assoc != 2 {
		t.Errorf("2-way misses = %d, want 2 cold misses only", assoc)
	}
}

func BenchmarkAccessRangeSequential(b *testing.B) {
	c := New(XeonL2())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.AccessRange(0, 8192, 8)
	}
}

func BenchmarkAccessRangeStrided(b *testing.B) {
	c := New(XeonL2())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.AccessRange(0, 8192, 1024)
	}
}

// refCache is the reference model the equivalence test drives next to
// Cache: a parallel valid bit per way, every way scanned on lookup, and
// copy-based LRU shifts. AccessRange looks up every access, without the
// same-line shortcut, so the test also proves that shortcut exact.
type refCache struct {
	lineShift uint
	setMask   uint64
	ways      []uint64
	valid     []bool
	assoc     int
	stats     Stats
}

type refState struct {
	ways  []uint64
	valid []bool
	stats Stats
}

func newRefCache(cfg Config) *refCache {
	shift := uint(0)
	for 1<<shift != cfg.LineBytes {
		shift++
	}
	sets := cfg.Sets()
	return &refCache{
		lineShift: shift,
		setMask:   uint64(sets - 1),
		ways:      make([]uint64, sets*cfg.Assoc),
		valid:     make([]bool, sets*cfg.Assoc),
		assoc:     cfg.Assoc,
	}
}

func (c *refCache) accessLine(line uint64) bool {
	set := int(line&c.setMask) * c.assoc
	ways := c.ways[set : set+c.assoc]
	valid := c.valid[set : set+c.assoc]
	for i := 0; i < c.assoc; i++ {
		if valid[i] && ways[i] == line {
			copy(ways[1:i+1], ways[0:i])
			ways[0] = line
			return true
		}
	}
	copy(ways[1:], ways[:c.assoc-1])
	copy(valid[1:], valid[:c.assoc-1])
	ways[0] = line
	valid[0] = true
	return false
}

func (c *refCache) Access(addr uint64) bool {
	c.stats.Accesses++
	if c.accessLine(addr >> c.lineShift) {
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	return false
}

func (c *refCache) AccessRange(base uint64, n, strideBytes int) (hits, misses uint64) {
	for i := 0; i < n; i++ {
		if c.Access(base + uint64(i)*uint64(strideBytes)) {
			hits++
		} else {
			misses++
		}
	}
	return hits, misses
}

func (c *refCache) Resident(addr uint64) bool {
	line := addr >> c.lineShift
	set := int(line&c.setMask) * c.assoc
	for i := 0; i < c.assoc; i++ {
		if c.valid[set+i] && c.ways[set+i] == line {
			return true
		}
	}
	return false
}

func (c *refCache) Flush() {
	for i := range c.valid {
		c.valid[i] = false
	}
}

func (c *refCache) Checkpoint() refState {
	return refState{
		ways:  append([]uint64(nil), c.ways...),
		valid: append([]bool(nil), c.valid...),
		stats: c.stats,
	}
}

func (c *refCache) Restore(s refState) {
	copy(c.ways, s.ways)
	copy(c.valid, s.valid)
	c.stats = s.stats
}

// TestMatchesReferenceModel drives Cache and refCache with the same random
// interleaving of every public operation and requires identical return
// values and Stats after each one. Streams use strides below one line,
// above one line, and negative or wrapping past the top of the address
// space; bases near 2^64 make LineBytes 1 reach line ID 2^64-1.
func TestMatchesReferenceModel(t *testing.T) {
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"direct mapped", Config{SizeBytes: 1024, LineBytes: 64, Assoc: 1}},
		{"8-way", Config{SizeBytes: 4096, LineBytes: 64, Assoc: 8}},
		{"fully associative", Config{SizeBytes: 2048, LineBytes: 64, Assoc: 32}},
		{"line 1 byte", Config{SizeBytes: 64, LineBytes: 1, Assoc: 4}},
		{"line 1 byte fully associative", Config{SizeBytes: 16, LineBytes: 1, Assoc: 16}},
	}
	for _, tc := range cfgs {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				checkAgainstReference(t, tc.cfg, seed, 2000)
			}
		})
	}
}

func checkAgainstReference(t *testing.T, cfg Config, seed int64, ops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c, ref := New(cfg), newRefCache(cfg)
	line := uint64(cfg.LineBytes)
	// Footprint of a few cache capacities, so hits, conflicts and capacity
	// misses all happen.
	span := uint64(4 * cfg.SizeBytes)
	addr := func() uint64 {
		switch rng.Intn(8) {
		case 0:
			return ^uint64(0) - uint64(rng.Intn(int(2*line)+8)) // top of the address space
		case 1:
			return uint64(rng.Intn(int(2*line) + 8))
		default:
			return uint64(rng.Int63n(int64(span)))
		}
	}
	stride := func() int {
		switch rng.Intn(5) {
		case 0:
			return rng.Intn(int(line)) // below one line, including 0
		case 1:
			return int(line) + rng.Intn(4*int(line)) // above one line
		case 2:
			return int(line) * (1 + rng.Intn(cfg.Sets()+1)) // whole lines, set-conflicting
		case 3:
			return -1 - rng.Intn(3*int(line)) // negative: wraps through zero
		default:
			return rng.Intn(int(span))
		}
	}
	type saved struct {
		got  State
		want refState
	}
	var snaps []saved
	for op := 0; op < ops; op++ {
		switch k := rng.Intn(20); {
		case k < 8:
			a := addr()
			if got, want := c.Access(a), ref.Access(a); got != want {
				t.Fatalf("seed %d op %d: Access(%#x) = %v, want %v", seed, op, a, got, want)
			}
		case k < 14:
			a, n, s := addr(), rng.Intn(300)-2, stride()
			gh, gm := c.AccessRange(a, n, s)
			wh, wm := ref.AccessRange(a, n, s)
			if gh != wh || gm != wm {
				t.Fatalf("seed %d op %d: AccessRange(%#x, %d, %d) = %d/%d, want %d/%d",
					seed, op, a, n, s, gh, gm, wh, wm)
			}
		case k < 16:
			a := addr()
			if got, want := c.Resident(a), ref.Resident(a); got != want {
				t.Fatalf("seed %d op %d: Resident(%#x) = %v, want %v", seed, op, a, got, want)
			}
		case k < 17:
			snaps = append(snaps, saved{c.Checkpoint(), ref.Checkpoint()})
		case k < 18:
			if len(snaps) > 0 {
				s := snaps[rng.Intn(len(snaps))]
				c.Restore(s.got)
				ref.Restore(s.want)
			}
		case k < 19:
			c.Flush()
			ref.Flush()
		default:
			c.ResetStats()
			ref.stats = Stats{}
		}
		if c.Stats() != ref.stats {
			t.Fatalf("seed %d op %d: Stats = %+v, want %+v", seed, op, c.Stats(), ref.stats)
		}
	}
}
