package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"ucp/internal/cache"
	"ucp/internal/ckpt"
	"ucp/internal/core"
	"ucp/internal/frontend"
	"ucp/internal/stats"
	"ucp/internal/trace"
	"ucp/internal/uopcache"
)

// This file is the per-span half of time-parallel simulation (the
// internal/wpar executor): one run is split into contiguous spans of
// its measured region — full-detail segments or sampled windows — and
// each span is simulated independently on a fresh machine whose
// boundary state is rebuilt by the same warming pyramid the sampled
// mode uses (trace skip → BP-train skip → cache-warm skip → functional
// commit → detailed warm). Because every span's outcome is a pure
// function of (config, trace, span, warming geometry), spans can run
// concurrently on any number of workers and reduce into one
// byte-identical result. RunSegmentAt runs one span from a Boundary: a
// cold start, a stored checkpoint (AcquireBoundary), or the end of its
// skip zone handed over by a BoundarySweep, which warms the skip zones
// of a whole sweepable plan in one pass instead of once per span.

// BoundaryWarm is the warming geometry applied at each segment
// boundary. All counts are instructions; the pyramid-nesting rules
// match SamplingConfig's horizons (fastForward shares the
// implementation).
//
//ucplint:config
type BoundaryWarm struct {
	// DetailedInsts precede every segment in detailed-but-unmeasured
	// mode, refilling pipeline/queue timing state the functional path
	// does not model.
	DetailedInsts uint64

	// FFInsts bounds the functional-warming horizon before the detailed
	// warm; 0 functionally commits the entire gap from position zero
	// (most accurate, but the boundary cost then grows with the
	// boundary's position and caps parallel scaling).
	FFInsts uint64

	// CacheInsts bounds the cache-warming horizon of the skip zone,
	// exactly as SamplingConfig.CacheWarmInsts (0 = unbounded).
	CacheInsts uint64

	// BPInsts bounds the direction-predictor training horizon of the
	// skip zone, exactly as SamplingConfig.BPWarmInsts (0 = unbounded).
	// When both horizons are bounded the cache-warm zone must fit
	// inside the predictor-training zone.
	BPInsts uint64
}

// DefaultBoundaryWarm is the conservative geometry: bounded functional
// warming, unbounded cache warming and predictor training in the skip
// zone — the same safety posture as ConservativeSampling, so no
// long-history state is ever dropped at a boundary.
func DefaultBoundaryWarm() BoundaryWarm {
	return BoundaryWarm{
		DetailedInsts: 5_000,
		FFInsts:       50_000,
	}
}

// Validate bounds the boundary-warming geometry.
func (b BoundaryWarm) Validate() error {
	if b.DetailedInsts < 1000 {
		return fmt.Errorf("sim: BoundaryWarm.DetailedInsts must be at least 1000 (segment boundaries are commit-based; a shorter detailed warm hands transient pipeline state to the measured span), got %d", b.DetailedInsts)
	}
	if b.DetailedInsts > 1<<40 {
		return fmt.Errorf("sim: BoundaryWarm.DetailedInsts %d is implausibly large", b.DetailedInsts)
	}
	if b.FFInsts > 1<<40 {
		return fmt.Errorf("sim: BoundaryWarm.FFInsts %d is implausibly large", b.FFInsts)
	}
	if b.CacheInsts > 1<<40 {
		return fmt.Errorf("sim: BoundaryWarm.CacheInsts %d is implausibly large", b.CacheInsts)
	}
	if b.BPInsts > 1<<40 {
		return fmt.Errorf("sim: BoundaryWarm.BPInsts %d is implausibly large", b.BPInsts)
	}
	if b.BPInsts > 0 && (b.CacheInsts == 0 || b.CacheInsts > b.BPInsts) {
		return fmt.Errorf("sim: BoundaryWarm.CacheInsts (%d) must be bounded within BPInsts (%d): an unwarmed cache zone inside the predictor-training zone inverts the warming pyramid",
			b.CacheInsts, b.BPInsts)
	}
	return nil
}

// SegmentSpec is one contiguous span [Start, End) of absolute stream
// positions (instruction counts from position zero), measured in
// detailed mode by one worker. Index orders segments within the run.
type SegmentSpec struct {
	Index      int
	Start, End uint64
}

// SegmentResult carries one segment's measured-region deltas. Unlike
// the serial Result, whose counter blocks are cumulative end-of-run
// state, every block here covers exactly [Start, End) — the merge sums
// them, so the combined blocks describe the measured region alone.
type SegmentResult struct {
	Index      int
	Start, End uint64

	// Insts/Cycles are the measured span's commit count and detailed
	// cycle count (the span may overshoot End by at most one commit
	// window — deterministically, like the serial engine's stop).
	Insts  uint64
	Cycles uint64

	FE  frontend.Stats
	Uop uopcache.Stats
	UCP core.Stats
	L1I cache.Stats

	StreamLens *stats.Histogram
	RefillLat  *stats.Histogram

	// SkippedInsts/FFInsts report how the boundary was warmed (restored
	// checkpoints return the captured values, so a restored segment is
	// indistinguishable from a cold one here too); DetailedInsts counts
	// everything cycle-accurately committed (boundary warm + measured
	// span) — the parallel executor sums it into
	// SampledStats.DetailedInsts for sampled runs.
	SkippedInsts  uint64
	FFInsts       uint64
	DetailedInsts uint64

	UCPStorageKB float64
}

// BoundaryKeySchema versions the boundary-checkpoint key derivation.
// Bump it when the normalization below changes, so old on-disk
// checkpoints become unreachable rather than wrongly shared.
const BoundaryKeySchema = "ucp-tpar-ckpt-1"

// BoundaryKey derives the content address of the functional-warm state
// at a segment boundary: the machine state after fast-forwarding to
// start−warm.DetailedInsts under warm's horizons. It reuses WarmKey's
// config normalization (the fast-forward touches the same subset) and
// additionally drops WarmupInsts — the boundary position is keyed
// explicitly, so runs with different warmup/segment geometry share any
// boundary they happen to place at the same position.
func BoundaryKey(cfg Config, traceID string, start uint64, warm BoundaryWarm) string {
	wcfg := warmConfig(cfg)
	wcfg.WarmupInsts = 0
	env := struct {
		Schema string
		Model  string
		Trace  string
		Start  uint64
		Warm   BoundaryWarm
		Config Config
	}{BoundaryKeySchema, ModelVersion, traceID, start, warm, wcfg}
	b, err := json.Marshal(env)
	if err != nil {
		// Config is a plain data struct; Marshal cannot fail on it.
		panic("sim: boundary key marshal: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// warmStart is where a span's detailed warm begins: DetailedInsts
// before its start, clamped at position zero.
func (b BoundaryWarm) warmStart(start uint64) uint64 {
	if start > b.DetailedInsts {
		return start - b.DetailedInsts
	}
	return 0
}

// Sweepable reports whether boundaries under b can share one boundary
// sweep (BoundarySweep): with unbounded cache and predictor horizons
// and a bounded functional tier, a span's skip zone is all of
// [0, warmStart−FFInsts), skip-warmed by the full machine warmer, so
// each boundary's zone is a prefix of every later one's. Bounded
// horizons are not sweepable — their zones start at different
// positions and drop state in between — and need none: their boundary
// cost is O(horizon), not O(position).
func (b BoundaryWarm) Sweepable() bool {
	return b.FFInsts > 0 && b.CacheInsts == 0 && b.BPInsts == 0
}

// skipZoneEnd is the end of a sweepable span's skip zone (0: the whole
// gap before the detailed warm is functional, so there is none).
func (b BoundaryWarm) skipZoneEnd(start uint64) uint64 {
	if ws := b.warmStart(start); ws > b.FFInsts {
		return ws - b.FFInsts
	}
	return 0
}

// Boundary is how one span's machine reaches its boundary state: a
// cold fast-forward from position zero (the zero value), a restored
// checkpoint of the functional-warm state (a store hit), or the end of
// its skip zone handed over by a BoundarySweep — as a checkpoint, or as
// the sweep machine itself at the sweep's last boundary — from which
// the span runs the functional tier on its own. A Boundary that carries
// a store lease must reach RunSegmentAt or Discard, once.
type Boundary struct {
	blob    []byte   // checkpoint to restore
	warmed  bool     // blob holds the functional-warm (post fast-forward) state
	m       *Machine // the sweep machine, at the end of this span's skip zone
	skipped uint64   // m's position accounting
	key     string   // store key, for restore errors
	release func([]byte)
}

// Discard gives up a boundary whose span will not run: a store lease
// it carries is aborted, so a waiter on the same key takes over.
func (b Boundary) Discard() {
	if b.release != nil {
		b.release(nil)
	}
}

// Swept reports whether b carries state a BoundarySweep produced for
// it — a checkpoint of its skip zone's end, or the sweep machine — as
// opposed to a stored checkpoint or nothing.
func (b Boundary) Swept() bool { return b.m != nil || (b.blob != nil && !b.warmed) }

// AcquireBoundary looks spec's boundary up in the attached store (nil:
// none): a hit returns the checkpoint, a miss the lease the span
// publishes its own capture under. Boundaries at position zero are
// never stored. Like ckpt.Store.Acquire, it blocks while another span
// captures the same boundary.
func AcquireBoundary(cfg Config, wc *WarmCheckpoints, spec SegmentSpec, warm BoundaryWarm) Boundary {
	if wc == nil || wc.Store == nil || warm.warmStart(spec.Start) == 0 {
		return Boundary{}
	}
	return acquire(wc.Store, BoundaryKey(cfg, wc.TraceID, spec.Start, warm))
}

// acquire looks key up in st: a hit is a Boundary holding the stored
// functional-warm state, a miss one holding the lease its capture is
// published under.
func acquire(st *ckpt.Store, key string) Boundary {
	blob, hit, release := st.Acquire(key)
	if hit {
		return Boundary{blob: blob, warmed: true, key: key}
	}
	return Boundary{key: key, release: release}
}

// RunSegmentAt simulates one span of a time-parallel run: reach the
// boundary state at spec.Start the way b says — a cold fast-forward (the
// zero Boundary), a checkpoint from AcquireBoundary, or, for a sweepable
// plan, BoundarySweep.Advance's hand-over — publishing the functional-warm
// state when b carries a store lease, then measure [Start, End) in
// detailed mode. newSource is called at most once, for a fresh stream at
// position zero not shared with any other span (arena cursors are the
// intended source); a boundary that hands over the sweep machine needs
// none. The result is deterministic for a given (cfg, trace, spec, warm)
// regardless of worker placement or of how the boundary was reached.
func RunSegmentAt(cfg Config, newSource func() trace.Source, code core.CodeInfo, spec SegmentSpec, warm BoundaryWarm, b Boundary) (SegmentResult, error) {
	// Once-guarded, so the abort is a no-op after a successful publish
	// and hands the flight to a waiter on any error path.
	defer b.Discard()
	if err := cfg.Validate(); err != nil {
		return SegmentResult{}, err
	}
	if cfg.Sampling.Enabled {
		return SegmentResult{}, fmt.Errorf("sim: RunSegmentAt is the full-detail span runner; sampled configs parallelize per measured window through internal/wpar, which strips Sampling and derives the boundary warm from the sampling geometry")
	}
	if err := warm.Validate(); err != nil {
		return SegmentResult{}, err
	}
	if spec.End <= spec.Start {
		return SegmentResult{}, fmt.Errorf("sim: segment %d has empty span [%d, %d)", spec.Index, spec.Start, spec.End)
	}

	// The detailed engine reads src only after the fast-forward is
	// done, so the frontend's batched read-ahead cannot outrun a stream
	// position nobody advances anymore — no scalar wrapper needed
	// (unlike the sampled mode, which alternates back into functional
	// phases after detailed windows).
	m := b.m
	if m == nil {
		m = NewMachine(cfg, newSource(), code)
	}
	skipped, ffTotal, err := b.reach(m, warm.warmStart(spec.Start), warm)
	if err != nil {
		return SegmentResult{}, err
	}
	a, z, err := m.measure(spec.Start, spec.End, skipped)
	if err != nil {
		return SegmentResult{}, err
	}
	r := SegmentResult{
		Index:         spec.Index,
		Start:         spec.Start,
		End:           spec.End,
		Insts:         z.insts - a.insts,
		Cycles:        z.cycles - a.cycles,
		FE:            SubCounters(a.fe, z.fe),
		Uop:           SubCounters(a.uop, z.uop),
		UCP:           SubCounters(a.ucp, z.ucp),
		L1I:           SubCounters(a.l1i, z.l1i),
		StreamLens:    m.fe.StreamLens,
		RefillLat:     m.fe.RefillLat,
		SkippedInsts:  skipped,
		FFInsts:       ffTotal,
		DetailedInsts: z.insts - ffTotal,
	}
	if m.ucp != nil {
		r.UCPStorageKB = m.ucp.StorageKB()
	}
	return r, nil
}

// reach brings m — a fresh machine, or the sweep machine b hands over —
// to position `to` the way b says: restore b's checkpoint, then, unless
// that already is the functional-warm state, fast-forward under warm's
// horizons and publish the result when b carries a store lease. It
// returns m's position accounting. The caller discards b.
func (b Boundary) reach(m *Machine, to uint64, warm BoundaryWarm) (skipped, ffTotal uint64, err error) {
	skipped = b.skipped
	if b.blob != nil {
		if skipped, ffTotal, err = m.restoreWarm(b.blob); err != nil {
			if b.key != "" {
				err = ckpt.KeyError(b.key, err)
			}
			return 0, 0, err
		}
	}
	if !b.warmed {
		if err := m.fastForward(to, warm, &skipped, &ffTotal); err != nil {
			return 0, 0, err
		}
		if b.release != nil {
			b.release(m.captureWarm(skipped, ffTotal, len(b.blob)))
		}
	}
	return skipped, ffTotal, nil
}

// measure runs one span in detailed mode — the detailed warm up to
// position start, then the measured span [start, end) — and returns
// the counter snapshots at the span's two ends. Positions are absolute;
// the commit targets subtract what the fast-forward skipped. The
// sampled chain's windows and RunSegmentAt's spans both measure here.
func (m *Machine) measure(start, end, skipped uint64) (a, z snapshot, err error) {
	m.fe.Unpause()
	if err := m.runUntil(start - skipped); err != nil {
		return a, z, err
	}
	a = m.snap()
	m.fe.ResetHistograms()
	if err := m.runUntil(end - skipped); err != nil {
		return a, z, err
	}
	return a, m.snap(), nil
}

// BoundarySweep builds the boundary states of a sweepable plan
// (BoundaryWarm.Sweepable) in one pass. A cold span skip-warms its zone
// [0, p) from position zero, so a plan of W spans warms Σ p — O(W²)
// for evenly spaced sampled windows. The sweep instead carries one
// machine forward through the zones in span order, 0 → p₀ → p₁ → …, and
// hands each span its zone-end state as a checkpoint; the span restores
// it into its own machine and runs the rest of the pyramid (functional
// tier, detailed warm, measured span) exactly as a cold span does. The
// swept state is bit-equal to the cold state, so results and
// checkpoint keys are unchanged: only the total skip-warm work drops to
// max p.
//
// With a store attached, a span whose boundary key hits
// (AcquireBoundary) gets the stored checkpoint and costs the sweep
// nothing; the sweep machine is built on the first miss, so a fully
// cached plan does no sweep work at all. Zone-end checkpoints never
// enter the store: a missing span publishes its functional-warm state
// under its BoundaryKey as a cold span does.
//
// A BoundarySweep is not safe for concurrent use; its Boundaries are
// independent and may be run on any goroutine.
type BoundarySweep struct {
	cfg       Config
	newSource func() trace.Source
	code      core.CodeInfo
	warm      BoundaryWarm

	m       *Machine // built on the first boundary that needs it
	w       sweepWarmer
	skipped uint64 // m's stream position (the sweep never commits)
	size    int    // last checkpoint's length: the next capture's size hint
}

// NewBoundarySweep starts a sweep over the plan of cfg (a full-detail
// config, as RunSegmentAt takes) under warm, which must be Sweepable.
// newSource is called once, on the first boundary that needs sweeping.
func NewBoundarySweep(cfg Config, newSource func() trace.Source, code core.CodeInfo, warm BoundaryWarm) (*BoundarySweep, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := warm.Validate(); err != nil {
		return nil, err
	}
	if !warm.Sweepable() {
		return nil, fmt.Errorf("sim: boundary warm %+v is not sweepable (bounded skip-zone horizons, or no functional tier)", warm)
	}
	return &BoundarySweep{cfg: cfg, newSource: newSource, code: code, warm: warm}, nil
}

// Advance completes b, spec's boundary from AcquireBoundary: unless b
// already holds the functional-warm state, the sweep skip-warms on to
// the end of spec's skip zone and b gets a checkpoint of that state.
// Specs must come in span order (starts nondecreasing). last marks the
// plan's last span: it gets the sweep machine itself instead of a
// checkpoint of it, so a plan opens one stream per span, and the sweep
// is spent. On error b's store lease is given up.
func (s *BoundarySweep) Advance(spec SegmentSpec, b Boundary, last bool) (Boundary, error) {
	p := s.warm.skipZoneEnd(spec.Start)
	if b.warmed || p == 0 {
		// A hit, or a boundary whose cold fast-forward is functional
		// warming alone: O(FFInsts) either way, nothing to sweep.
		return b, nil
	}
	if s.m == nil {
		s.m = NewMachine(s.cfg, s.newSource(), s.code)
		s.w = sweepWarmer{machineWarmer: machineWarmer{s.m}}
	}
	if p < s.skipped {
		b.Discard()
		return Boundary{}, fmt.Errorf("sim: boundary sweep is at %d, past span %d's skip zone [0, %d)", s.skipped, spec.Index, p)
	}
	n := uint64(trace.SkipWarmN(s.m.src, int(p-s.skipped), &s.w))
	s.skipped += n
	s.m.cycle += n
	if s.skipped != p {
		b.Discard()
		return Boundary{}, fmt.Errorf("sim: trace ended during fast-forward at instruction %d", s.skipped)
	}
	if last {
		b.m, b.skipped = s.m, s.skipped
		s.m, s.w = nil, sweepWarmer{}
		return b, nil
	}
	b.blob = s.m.captureWarm(s.skipped, 0, s.size)
	s.size = len(b.blob)
	return b, nil
}

// sweepWarmer is the skip zone's machineWarmer for a zone crossed in
// several SkipWarmN calls. SkipWarmN reports a fetch line only when it
// differs from the previous instruction's, but it forgets that line
// between calls, so each chunk would re-report the line the last one
// ended on — one extra L1I hit per boundary, which changes the swept
// state's bytes. sweepWarmer carries the line across calls, so the
// chunked sweep warms exactly what one cold SkipWarmN over the whole
// zone does.
type sweepWarmer struct {
	machineWarmer
	line  uint64
	valid bool
}

func (w *sweepWarmer) WarmFetch(lineAddr uint64) {
	if w.valid && lineAddr == w.line {
		return
	}
	w.line, w.valid = lineAddr, true
	w.machineWarmer.WarmFetch(lineAddr)
}
