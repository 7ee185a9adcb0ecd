// Package uopcache implements the µ-op cache (decoded stream buffer) at
// the heart of the paper. Entries follow the termination rules of §II
// and §III-A: one entry covers up to 8 µ-ops within a 32-byte aligned
// code region, ends at a predicted-taken branch or at the region
// boundary, and holds at most two branch targets; if a third branch is
// needed, a new entry for the same region goes into another way of the
// same set. The structure is physically tagged and not inclusive of the
// L1I (§IV-G2), and its tag array is even/odd set-interleaved into two
// banks so demand and alternate-path tag checks can proceed in parallel
// (§IV-D).
package uopcache

import (
	"fmt"

	"ucp/internal/isa"
)

// Config sizes the µ-op cache.
//
//ucplint:config
type Config struct {
	// Ops is the total µ-op capacity (4096 = "4Kops" baseline).
	Ops int
	// OpsPerEntry is the entry width (8 in the paper's ARM model).
	OpsPerEntry int
	// Ways is the set associativity.
	Ways int
	// MaxBranches is the branch-target budget per entry.
	MaxBranches int
	// Banks is the number of tag-check banks (2 in UCP).
	Banks int
}

// DefaultConfig is the paper's baseline 4Kops geometry (Table II):
// 64 sets × 8 ways × 8 µ-ops.
func DefaultConfig() Config {
	return Config{Ops: 4096, OpsPerEntry: 8, Ways: 8, MaxBranches: 2, Banks: 2}
}

// ConfigOps returns the baseline geometry scaled to a total capacity
// (used by the Fig. 4 size sweep).
func ConfigOps(ops int) Config {
	c := DefaultConfig()
	c.Ops = ops
	return c
}

// Validate rejects µ-op cache geometries the entry encoding cannot
// hold: Entry.Ops is a 4-bit count and Entry.Branches a 2-bit count
// (see the nbits: markers on Entry).
func (c Config) Validate() error {
	if c.Ops <= 0 {
		return fmt.Errorf("uopcache: Ops must be positive, got %d", c.Ops)
	}
	if c.OpsPerEntry <= 0 || c.OpsPerEntry > 15 {
		return fmt.Errorf("uopcache: OpsPerEntry must be in [1,15] (4-bit op count), got %d", c.OpsPerEntry)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("uopcache: Ways must be positive, got %d", c.Ways)
	}
	if c.MaxBranches <= 0 || c.MaxBranches > 3 {
		return fmt.Errorf("uopcache: MaxBranches must be in [1,3] (2-bit branch count), got %d", c.MaxBranches)
	}
	if c.Banks <= 0 {
		return fmt.Errorf("uopcache: Banks must be positive, got %d", c.Banks)
	}
	return nil
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int {
	s := c.Ops / (c.OpsPerEntry * c.Ways)
	if s < 1 {
		return 1
	}
	return s
}

// Entry is one µ-op cache entry: a run of decoded µ-ops starting at
// StartPC, all within one 32-byte region.
type Entry struct {
	// Ops is the number of µ-ops held ([0,8] in the baseline geometry).
	// nbits:4
	Ops uint8
	// Branches is the number of branch targets recorded. nbits:2
	Branches uint8
	// EndsTaken marks an entry terminated by a predicted-taken branch.
	EndsTaken bool
	// Prefetched marks entries inserted by UCP rather than demand build.
	Prefetched bool
	// Used marks entries that served at least one demand hit.
	Used bool
}

// Stats counts µ-op cache traffic.
type Stats struct {
	Lookups, Hits uint64
	Inserts       uint64
	Evictions     uint64
	// Prefetch accounting (Fig. 14): inserted by UCP, hit at least once
	// before eviction, and hit on entries whose alternate path turned
	// out wrong.
	PrefetchInserts     uint64
	PrefetchUsed        uint64
	PrefetchEvictUnused uint64
	// Invalidations counts inclusion-driven entry invalidations.
	Invalidations uint64
}

// UopCache is the decoded µ-op cache.
type UopCache struct {
	cfg  Config
	sets int
	// tags packs each way's valid bit and tag (region tag ⧺ start
	// offset) as validBit|tag (zero = invalid), with LRU stamps in a
	// parallel array: tag checks — which run several times per cycle on
	// both the demand and alternate paths and usually miss — scan one
	// cache line per set without touching the entry payloads.
	tags  []uint64 // sets × ways
	lrus  []uint64 // sets × ways
	data  []Entry
	clock uint64
	stats Stats

	// Set/tag extraction constants (masks when sets is a power of two,
	// as in every shipped configuration) — the tag check runs several
	// times per cycle on both the demand and alternate paths.
	setsPow2 bool
	setMask  uint64
	tagShift uint
}

// validBit marks a live way in the packed tag array. Tags derive from
// PCs shifted right by ≥5 bits, so bit 63 is never part of a tag.
const validBit = uint64(1) << 63

// New constructs a µ-op cache.
func New(cfg Config) *UopCache {
	sets := cfg.Sets()
	u := &UopCache{cfg: cfg, sets: sets,
		tags: make([]uint64, sets*cfg.Ways),
		lrus: make([]uint64, sets*cfg.Ways),
		data: make([]Entry, sets*cfg.Ways)}
	if sets&(sets-1) == 0 {
		u.setsPow2 = true
		u.setMask = uint64(sets - 1)
		shift := uint(0)
		for 1<<shift < sets {
			shift++
		}
		u.tagShift = 5 + shift // log2(EntryBytes) + log2(sets)
	}
	return u
}

// RegionOf returns the 32-byte-aligned region address containing pc.
func RegionOf(pc uint64) uint64 { return pc &^ (isa.EntryBytes - 1) }

func (u *UopCache) setOf(pc uint64) int {
	if u.setsPow2 {
		return int((pc / isa.EntryBytes) & u.setMask)
	}
	return int((pc / isa.EntryBytes) % uint64(u.sets))
}

func (u *UopCache) tagOf(pc uint64) uint64 {
	var region uint64
	if u.setsPow2 {
		region = pc >> u.tagShift
	} else {
		region = pc / isa.EntryBytes / uint64(u.sets)
	}
	off := (pc % isa.EntryBytes) / isa.InstBytes
	return region<<3 | off
}

// BankOf returns the tag-check bank (even/odd set interleaving).
func (u *UopCache) BankOf(pc uint64) int {
	if u.cfg.Banks <= 1 {
		return 0
	}
	return u.setOf(pc) % u.cfg.Banks
}

// Lookup finds the entry starting exactly at pc. It updates LRU and hit
// statistics (demand lookups only — use Probe for tag checks). It runs
// once per fetched entry in the cycle engine's inner loop.
//
//ucplint:hotpath
func (u *UopCache) Lookup(pc uint64) (*Entry, bool) {
	u.stats.Lookups++
	u.clock++
	base := u.setOf(pc) * u.cfg.Ways
	want := validBit | u.tagOf(pc)
	for w, tv := range u.tags[base : base+u.cfg.Ways] {
		if tv == want {
			e := &u.data[base+w]
			u.lrus[base+w] = u.clock
			e.Used = true
			if e.Prefetched {
				u.stats.PrefetchUsed++
				e.Prefetched = false // count each prefetched entry once
			}
			u.stats.Hits++
			return e, true
		}
	}
	return nil, false
}

// Probe is a tag check with no statistics or LRU side effects (used by
// UCP's Alt-FTQ filtering, §IV-D). Like Lookup it sits on the per-cycle
// path.
//
//ucplint:hotpath
func (u *UopCache) Probe(pc uint64) bool {
	base := u.setOf(pc) * u.cfg.Ways
	want := validBit | u.tagOf(pc)
	for _, tv := range u.tags[base : base+u.cfg.Ways] {
		if tv == want {
			return true
		}
	}
	return false
}

// Insert installs an entry starting at pc holding ops µ-ops. prefetched
// distinguishes UCP fills from demand builds.
func (u *UopCache) Insert(pc uint64, ops, branches uint8, endsTaken, prefetched bool) {
	u.stats.Inserts++
	if prefetched {
		u.stats.PrefetchInserts++
	}
	u.clock++
	base := u.setOf(pc) * u.cfg.Ways
	want := validBit | u.tagOf(pc)
	victim, oldest := 0, ^uint64(0)
	for w, tv := range u.tags[base : base+u.cfg.Ways] {
		if tv == want {
			// Rebuild of an existing entry: refresh in place.
			e := &u.data[base+w]
			e.Ops, e.Branches, e.EndsTaken = ops, branches, endsTaken
			u.lrus[base+w] = u.clock
			return
		}
		if tv == 0 {
			victim, oldest = w, 0
			break
		}
		if l := u.lrus[base+w]; l < oldest {
			victim, oldest = w, l
		}
	}
	v := &u.data[base+victim]
	if u.tags[base+victim] != 0 {
		u.stats.Evictions++
		if v.Prefetched && !v.Used {
			u.stats.PrefetchEvictUnused++
		}
	}
	u.tags[base+victim] = want
	u.lrus[base+victim] = u.clock
	*v = Entry{
		Ops: ops, Branches: branches, EndsTaken: endsTaken,
		Prefetched: prefetched,
	}
}

// InvalidateLine invalidates every entry whose code region lies within
// the given 64-byte line. Used by the L1I-inclusive design point
// (§IV-G2): when the L1I evicts a line, the µ-op cache may not keep its
// decoded form.
func (u *UopCache) InvalidateLine(lineAddr uint64) {
	for region := lineAddr &^ (isa.LineBytes - 1); region < lineAddr+isa.LineBytes; region += isa.EntryBytes {
		base := u.setOf(region) * u.cfg.Ways
		regionTag := region / isa.EntryBytes / uint64(u.sets)
		for w, tv := range u.tags[base : base+u.cfg.Ways] {
			if tv != 0 && (tv&^validBit)>>3 == regionTag {
				u.tags[base+w] = 0
				u.data[base+w] = Entry{}
				u.stats.Invalidations++
			}
		}
	}
}

// Stats returns a copy of the counters.
func (u *UopCache) Stats() Stats { return u.stats }

// Config returns the geometry.
func (u *UopCache) Config() Config { return u.cfg }

// StorageBits returns the modeled hardware budget: each µ-op slot costs
// ~36 bits (decoded op + immediate share), plus tags and metadata. Used
// for the Fig. 16 cost/benefit axis.
func (u *UopCache) StorageBits() int {
	perEntry := u.cfg.OpsPerEntry*36 + 16 + 8
	return u.sets * u.cfg.Ways * perEntry
}

// StorageKB returns the budget in kilobytes.
func (u *UopCache) StorageKB() float64 { return float64(u.StorageBits()) / 8 / 1024 }
