package prefetch

import "fmt"

// MRC is the Misprediction Recovery Cache baseline (Nanda et al.,
// §VI-F): a fully-associative cache of decoded-µ-op streams tagged by
// the corrected branch target. On a misprediction, a tag hit streams up
// to OpsPerEntry µ-ops straight to the execution engine, skipping the
// fetch/decode refill; an entry is (re)recorded after every
// misprediction. The simulator models the entry directory and LRU here;
// the streamed µ-ops themselves are the trace's correct path, so only
// their accelerated delivery needs modeling (frontend fast-deliver
// credit).
type MRC struct {
	cfg   MRCConfig
	lru   map[uint64]uint64
	clock uint64
}

// MRCConfig sizes the MRC. The paper evaluates 64 µ-ops per entry at
// 16.5, 33, 66, and 132KB total.
//
//ucplint:config
type MRCConfig struct {
	Entries     int
	OpsPerEntry int
}

// Validate rejects empty or absurd MRC geometries.
func (c MRCConfig) Validate() error {
	if c.Entries <= 0 {
		return fmt.Errorf("prefetch: MRC Entries must be positive, got %d", c.Entries)
	}
	if c.OpsPerEntry <= 0 || c.OpsPerEntry > 1024 {
		return fmt.Errorf("prefetch: MRC OpsPerEntry must be in [1,1024], got %d", c.OpsPerEntry)
	}
	return nil
}

// MRCConfigKB returns a configuration of roughly the given storage
// (64 µ-ops ≈ 258B per entry including tag and LRU).
func MRCConfigKB(kb float64) MRCConfig {
	entries := int(kb * 1024 / 258)
	if entries < 1 {
		entries = 1
	}
	return MRCConfig{Entries: entries, OpsPerEntry: 64}
}

// NewMRC constructs an MRC.
func NewMRC(cfg MRCConfig) *MRC {
	if cfg.OpsPerEntry == 0 {
		cfg.OpsPerEntry = 64
	}
	return &MRC{cfg: cfg, lru: make(map[uint64]uint64, cfg.Entries)}
}

// Lookup checks for a stream tagged with the corrected target.
func (m *MRC) Lookup(tag uint64) bool {
	m.clock++
	if _, ok := m.lru[tag]; ok {
		m.lru[tag] = m.clock
		return true
	}
	return false
}

// Record installs (or refreshes) the stream for the corrected target.
func (m *MRC) Record(tag uint64) {
	m.clock++
	if _, ok := m.lru[tag]; ok {
		m.lru[tag] = m.clock
		return
	}
	if len(m.lru) >= m.cfg.Entries {
		var victim uint64
		oldest := ^uint64(0)
		for t, at := range m.lru {
			if at < oldest {
				victim, oldest = t, at
			}
		}
		delete(m.lru, victim)
	}
	m.lru[tag] = m.clock
}

// OpsPerEntry returns the streamable µ-ops per hit.
func (m *MRC) OpsPerEntry() int { return m.cfg.OpsPerEntry }

// StorageKB returns the modeled hardware budget.
func (m *MRC) StorageKB() float64 {
	return float64(m.cfg.Entries) * 258 / 1024
}
