// Package cache implements a set-associative, write-allocate cache simulator
// with true-LRU replacement and a bulk stream-access API.
//
// The simulator stands in for the hardware performance counters (PAPI/PCL)
// used by the paper: kernels feed their actual memory-access streams through
// the simulator, which accounts hits and misses; the platform's CPU model
// converts those counts into virtual time. The default configuration mirrors
// the paper's testbed (dual 2.8 GHz Pentium Xeon, 512 kB L2, 64 B lines).
package cache

import "fmt"

// Config describes the geometry of a simulated cache.
type Config struct {
	// SizeBytes is the total capacity of the cache in bytes.
	SizeBytes int
	// LineBytes is the cache-line size in bytes. Must be a power of two.
	LineBytes int
	// Assoc is the number of ways per set. Assoc == 1 is a direct-mapped
	// cache; Assoc == SizeBytes/LineBytes is fully associative.
	Assoc int
}

// XeonL2 returns the configuration of the paper testbed's L2 cache:
// 512 kB, 8-way set associative, 64-byte lines.
func XeonL2() Config {
	return Config{SizeBytes: 512 * 1024, LineBytes: 64, Assoc: 8}
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines*c.LineBytes != c.SizeBytes {
		return fmt.Errorf("cache: size %d not a multiple of line size %d", c.SizeBytes, c.LineBytes)
	}
	if lines%c.Assoc != 0 {
		return fmt.Errorf("cache: %d lines not divisible by associativity %d", lines, c.Assoc)
	}
	sets := lines / c.Assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeBytes / c.LineBytes / c.Assoc }

// Stats holds cumulative access counters, in the style of PAPI event counts.
type Stats struct {
	// Accesses is the total number of data accesses (PAPI_L2_DCA analog).
	Accesses uint64
	// Hits is the number of accesses satisfied by the cache.
	Hits uint64
	// Misses is the number of accesses that required a line fill
	// (PAPI_L2_DCM analog).
	Misses uint64
}

// MissRate returns Misses/Accesses, or 0 for an untouched cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a simulated set-associative cache. It is not safe for concurrent
// use; in the SCMD model each simulated rank owns a private Cache.
type Cache struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	// ways holds, per set, the resident line IDs in LRU order
	// (index 0 = most recently used). Only the first fill[set] ways of a
	// set are valid: a miss fills the MRU way and only Flush invalidates,
	// and it invalidates every way, so the valid ways are always a prefix.
	// A count rather than a sentinel line ID keeps every uint64 usable as
	// a line (LineBytes 1 makes every address one).
	ways  []uint64
	fill  []int32
	assoc int
	stats Stats
}

// New constructs a cache simulator for the given geometry.
// It panics if the configuration is invalid, as a cache is always
// constructed from static, programmer-chosen parameters.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	shift := uint(0)
	for 1<<shift != cfg.LineBytes {
		shift++
	}
	sets := cfg.Sets()
	return &Cache{
		cfg:       cfg,
		lineShift: shift,
		setMask:   uint64(sets - 1),
		ways:      make([]uint64, sets*cfg.Assoc),
		fill:      make([]int32, sets),
		assoc:     cfg.Assoc,
	}
}

// Config returns the geometry the cache was built with.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the cumulative counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters without disturbing cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// RestoreStats rewinds the counters to a previously captured Stats value
// without disturbing cache contents. Rollback paths use it to undo the
// counter side of accesses whose line-state side never happened.
func (c *Cache) RestoreStats(s Stats) { c.stats = s }

// State is a deep snapshot of a cache's full mutable state: resident lines,
// LRU order, per-set fill counts and counters. It is opaque; use
// Checkpoint/Restore.
type State struct {
	ways  []uint64
	fill  []int32
	stats Stats
}

// Checkpoint captures the complete cache state (lines, LRU order, counters)
// for a later Restore. The copy is proportional to the cache's line count
// (~8k entries for the 512 kB testbed cache), so callers on hot paths that
// know their region performs no accesses should checkpoint Stats alone.
func (c *Cache) Checkpoint() State {
	s := State{
		ways:  make([]uint64, len(c.ways)),
		fill:  make([]int32, len(c.fill)),
		stats: c.stats,
	}
	copy(s.ways, c.ways)
	copy(s.fill, c.fill)
	return s
}

// Restore rewinds the cache to a previously captured State. The checkpoint
// must come from a cache of the same geometry; restoring a snapshot from a
// differently shaped cache panics.
func (c *Cache) Restore(s State) {
	if len(s.ways) != len(c.ways) || len(s.fill) != len(c.fill) {
		panic(fmt.Sprintf("cache: checkpoint geometry mismatch: %d lines in %d sets vs %d in %d",
			len(s.ways), len(s.fill), len(c.ways), len(c.fill)))
	}
	copy(c.ways, s.ways)
	copy(c.fill, s.fill)
	c.stats = s.stats
}

// Flush invalidates every line and leaves the counters untouched.
func (c *Cache) Flush() {
	clear(c.fill)
}

// LineBytes returns the line size in bytes.
func (c *Cache) LineBytes() int { return c.cfg.LineBytes }

// accessLine looks up (and on miss, fills) the given line ID,
// maintaining LRU order. It reports whether the access hit.
func (c *Cache) accessLine(line uint64) bool {
	set := int(line & c.setMask)
	ways := c.ways[set*c.assoc : (set+1)*c.assoc]
	n := int(c.fill[set])
	// Scan the valid ways from MRU; a hit moves the line to MRU.
	valid := ways[:n]
	for i, w := range valid {
		if w == line {
			for ; i > 0; i-- {
				valid[i] = valid[i-1]
			}
			valid[0] = line
			return true
		}
	}
	// Miss: fill a free way or evict the LRU one, shift, insert at MRU.
	if n < len(ways) {
		n++
		c.fill[set] = int32(n)
	}
	valid = ways[:n]
	for i := n - 1; i > 0; i-- {
		valid[i] = valid[i-1]
	}
	valid[0] = line
	return false
}

// Access simulates a single data access at the given virtual byte address
// and reports whether it hit.
func (c *Cache) Access(addr uint64) bool {
	c.stats.Accesses++
	if c.accessLine(addr >> c.lineShift) {
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	return false
}

// AccessRange simulates n accesses starting at base with the given byte
// stride between consecutive accesses, and returns the hit and miss counts
// for this stream. An access that falls on the same line as the previous
// one is counted as a hit without a directory lookup. That is exact for any
// stream: the previous access left the line resident at MRU, so the lookup
// would hit and change nothing.
func (c *Cache) AccessRange(base uint64, n, strideBytes int) (hits, misses uint64) {
	if n <= 0 {
		return 0, 0
	}
	lastLine := base >> c.lineShift
	if c.accessLine(lastLine) {
		hits++
	} else {
		misses++
	}
	addr := base
	for i := 1; i < n; i++ {
		addr += uint64(strideBytes)
		line := addr >> c.lineShift
		if line == lastLine {
			hits++
			continue
		}
		lastLine = line
		if c.accessLine(line) {
			hits++
		} else {
			misses++
		}
	}
	c.stats.Accesses += uint64(n)
	c.stats.Hits += hits
	c.stats.Misses += misses
	return hits, misses
}

// Resident reports whether the line containing addr is currently cached,
// without affecting LRU order or counters.
func (c *Cache) Resident(addr uint64) bool {
	line := addr >> c.lineShift
	set := int(line & c.setMask)
	for _, w := range c.ways[set*c.assoc : set*c.assoc+int(c.fill[set])] {
		if w == line {
			return true
		}
	}
	return false
}
