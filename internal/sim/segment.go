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
// byte-identical result.

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

// RunSegment simulates one segment of a full-detail run: rebuild the
// boundary state at spec.Start (restoring a cached checkpoint when the
// store has one, capturing one for the next run otherwise), then
// measure [Start, End) in detailed mode. src must be a fresh stream at
// position zero, not shared with any other segment (arena cursors are
// the intended source). The result is deterministic for a given
// (cfg, trace, spec, warm) regardless of worker placement, and a
// checkpoint-restored boundary is byte-identical to a cold one.
func RunSegment(cfg Config, src trace.Source, code core.CodeInfo, spec SegmentSpec, warm BoundaryWarm, wc *WarmCheckpoints) (SegmentResult, error) {
	if err := cfg.Validate(); err != nil {
		return SegmentResult{}, err
	}
	if cfg.Sampling.Enabled {
		return SegmentResult{}, fmt.Errorf("sim: RunSegment is the full-detail span runner; sampled configs parallelize per measured window through internal/wpar, which strips Sampling and derives the boundary warm from the sampling geometry")
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
	m := NewMachine(cfg, src, code)

	warmStart := uint64(0)
	if spec.Start > warm.DetailedInsts {
		warmStart = spec.Start - warm.DetailedInsts
	}
	var skipped, ffTotal uint64
	if wc != nil && wc.Store != nil && warmStart > 0 {
		key := BoundaryKey(cfg, wc.TraceID, spec.Start, warm)
		blob, hit, release := wc.Store.Acquire(key)
		if hit {
			var err error
			if skipped, ffTotal, err = m.restoreWarm(blob); err != nil {
				return SegmentResult{}, ckpt.KeyError(key, err)
			}
		} else {
			// Leader: pay the fast-forward and publish. Once-guarded, so
			// the deferred abort is a no-op after a successful publish.
			defer release(nil)
			if err := m.fastForward(warmStart, warm.FFInsts, warm.CacheInsts, warm.BPInsts, &skipped, &ffTotal); err != nil {
				return SegmentResult{}, err
			}
			release(m.captureWarm(skipped, ffTotal))
		}
	} else if err := m.fastForward(warmStart, warm.FFInsts, warm.CacheInsts, warm.BPInsts, &skipped, &ffTotal); err != nil {
		return SegmentResult{}, err
	}

	// Detailed warm to the segment start, then the measured span.
	// Targets are commit counts: absolute position minus what the
	// fast-forward skipped.
	m.fe.Unpause()
	if err := m.runUntil(spec.Start - skipped); err != nil {
		return SegmentResult{}, err
	}
	a := m.snap()
	m.fe.ResetHistograms()
	if err := m.runUntil(spec.End - skipped); err != nil {
		return SegmentResult{}, err
	}
	b := m.snap()

	r := SegmentResult{
		Index:         spec.Index,
		Start:         spec.Start,
		End:           spec.End,
		Insts:         b.insts - a.insts,
		Cycles:        b.cycles - a.cycles,
		FE:            SubCounters(a.fe, b.fe),
		Uop:           SubCounters(a.uop, b.uop),
		UCP:           SubCounters(a.ucp, b.ucp),
		L1I:           SubCounters(a.l1i, b.l1i),
		StreamLens:    m.fe.StreamLens,
		RefillLat:     m.fe.RefillLat,
		SkippedInsts:  skipped,
		FFInsts:       ffTotal,
		DetailedInsts: b.insts - ffTotal,
	}
	if m.ucp != nil {
		r.UCPStorageKB = m.ucp.StorageKB()
	}
	return r, nil
}
