package sim_test

import (
	"reflect"
	"strings"
	"testing"

	"ucp/internal/ckpt"
	"ucp/internal/core"
	"ucp/internal/sim"
	"ucp/internal/trace"
)

// segSource returns a fresh stream over prof at position zero, budgeted
// for a boundary-warmed segment ending no later than end.
func segSource(t *testing.T, profName string, end uint64) (trace.Source, *trace.Program) {
	t.Helper()
	prof, ok := trace.ProfileByName(profName)
	if !ok {
		t.Fatalf("unknown profile %q", profName)
	}
	prog, err := trace.BuildProgram(prof)
	if err != nil {
		t.Fatalf("building %s: %v", profName, err)
	}
	return trace.NewLimit(trace.NewWalker(prog), int(end)+200_000), prog
}

// TestRunSegmentDeterministic pins that a segment's result is a pure
// function of (config, trace, span, warming geometry): two independent
// runs must agree on every field, including histogram internals.
func TestRunSegmentDeterministic(t *testing.T) {
	cfg := sim.WithUCP(core.DefaultConfig())
	cfg.WarmupInsts, cfg.MeasureInsts = 20_000, 40_000
	spec := sim.SegmentSpec{Index: 1, Start: 40_000, End: 60_000}
	warm := sim.BoundaryWarm{DetailedInsts: 2_000, FFInsts: 8_000}
	mk := func() sim.SegmentResult {
		src, prog := segSource(t, "crypto01", spec.End)
		r, err := sim.RunSegmentAt(cfg, func() trace.Source { return src }, prog, spec, warm, sim.AcquireBoundary(cfg, nil, spec, warm))
		if err != nil {
			t.Fatalf("RunSegmentAt: %v", err)
		}
		return r
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("segment results differ across identical runs:\n%+v\n---\n%+v", a, b)
	}
	if a.Insts < spec.End-spec.Start {
		t.Errorf("measured %d insts, want >= span length %d", a.Insts, spec.End-spec.Start)
	}
	if a.SkippedInsts == 0 || a.FFInsts == 0 {
		t.Errorf("boundary warming engaged no pyramid tiers: skipped=%d ff=%d", a.SkippedInsts, a.FFInsts)
	}
}

// TestRunSegmentCheckpointRestoreIdentical is the byte-identity bar for
// boundary checkpoints: cold (no store), capturing (leader), and
// restored (hit) runs of the same segment must produce deeply equal
// results, and the restored run must report the captured warming stats.
func TestRunSegmentCheckpointRestoreIdentical(t *testing.T) {
	cfg := sim.WithUCP(core.DefaultConfig())
	cfg.WarmupInsts, cfg.MeasureInsts = 20_000, 40_000
	spec := sim.SegmentSpec{Index: 0, Start: 20_000, End: 35_000}
	warm := sim.BoundaryWarm{DetailedInsts: 2_000, FFInsts: 8_000}

	run := func(wc *sim.WarmCheckpoints) sim.SegmentResult {
		src, prog := segSource(t, "srv203", spec.End)
		r, err := sim.RunSegmentAt(cfg, func() trace.Source { return src }, prog, spec, warm, sim.AcquireBoundary(cfg, wc, spec, warm))
		if err != nil {
			t.Fatalf("RunSegmentAt: %v", err)
		}
		return r
	}

	cold := run(nil)
	store := ckpt.NewStore("")
	wc := &sim.WarmCheckpoints{Store: store, TraceID: "test:srv203"}
	captured := run(wc)
	if store.Len() != 1 {
		t.Fatalf("capturing run left %d checkpoints, want 1", store.Len())
	}
	restored := run(wc)
	if store.Hits() != 1 {
		t.Fatalf("store hits = %d, want 1 (restore must come from the checkpoint)", store.Hits())
	}
	if !reflect.DeepEqual(cold, captured) {
		t.Errorf("capturing run differs from cold run:\n%+v\n---\n%+v", captured, cold)
	}
	if !reflect.DeepEqual(cold, restored) {
		t.Errorf("checkpoint-restored run differs from cold run:\n%+v\n---\n%+v", restored, cold)
	}
}

// TestRunSegmentShorterThanWarmWindow covers the degenerate boundary:
// a segment starting inside the detailed-warm window (start <
// DetailedInsts) must simulate in detail from position zero — no
// skipping, no functional warming — and still be deterministic.
func TestRunSegmentShorterThanWarmWindow(t *testing.T) {
	cfg := sim.Baseline()
	cfg.WarmupInsts, cfg.MeasureInsts = 500, 2_000
	spec := sim.SegmentSpec{Index: 0, Start: 500, End: 1_500}
	warm := sim.BoundaryWarm{DetailedInsts: 5_000} // wider than the whole prefix
	mk := func() sim.SegmentResult {
		src, prog := segSource(t, "crypto01", spec.End)
		r, err := sim.RunSegmentAt(cfg, func() trace.Source { return src }, prog, spec, warm, sim.AcquireBoundary(cfg, nil, spec, warm))
		if err != nil {
			t.Fatalf("RunSegmentAt: %v", err)
		}
		return r
	}
	a, b := mk(), mk()
	if a.SkippedInsts != 0 || a.FFInsts != 0 {
		t.Errorf("segment inside the warm window must warm in detail only: skipped=%d ff=%d",
			a.SkippedInsts, a.FFInsts)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("short-prefix segment is nondeterministic:\n%+v\n---\n%+v", a, b)
	}
}

// TestRunSegmentRejects pins the argument contract: sampled configs and
// empty spans are errors, not silent misbehavior.
func TestRunSegmentRejects(t *testing.T) {
	cfg := sim.Baseline()
	cfg.WarmupInsts, cfg.MeasureInsts = 10_000, 10_000
	warm := sim.DefaultBoundaryWarm()

	sampled := cfg
	sampled.Sampling = quickSampling()
	sampled.MeasureInsts = 100_000
	span, empty := sim.SegmentSpec{Start: 10_000, End: 20_000}, sim.SegmentSpec{Start: 10_000, End: 10_000}
	src, prog := segSource(t, "crypto01", 20_000)
	newSource := func() trace.Source { return src }
	if _, err := sim.RunSegmentAt(sampled, newSource, prog, span, warm, sim.AcquireBoundary(sampled, nil, span, warm)); err == nil || !strings.Contains(err.Error(), "full-detail") {
		t.Errorf("sampled config accepted: err = %v", err)
	}
	if _, err := sim.RunSegmentAt(cfg, newSource, prog, empty, warm, sim.AcquireBoundary(cfg, nil, empty, warm)); err == nil || !strings.Contains(err.Error(), "empty span") {
		t.Errorf("empty span accepted: err = %v", err)
	}
}

// TestBoundaryWarmValidate pins the geometry bounds, mirroring the
// sampling pyramid's rules.
func TestBoundaryWarmValidate(t *testing.T) {
	if err := sim.DefaultBoundaryWarm().Validate(); err != nil {
		t.Fatalf("default geometry rejected: %v", err)
	}
	cases := []struct {
		name string
		warm sim.BoundaryWarm
	}{
		{"detailed warm too small", sim.BoundaryWarm{DetailedInsts: 999}},
		{"implausible detailed", sim.BoundaryWarm{DetailedInsts: 1 << 41}},
		{"implausible ff", sim.BoundaryWarm{DetailedInsts: 5_000, FFInsts: 1 << 41}},
		{"implausible cache", sim.BoundaryWarm{DetailedInsts: 5_000, CacheInsts: 1 << 41}},
		{"implausible bp", sim.BoundaryWarm{DetailedInsts: 5_000, BPInsts: 1 << 41}},
		{"inverted pyramid via zero cachewarm", sim.BoundaryWarm{DetailedInsts: 5_000, BPInsts: 5_000}},
		{"cache zone wider than bp zone", sim.BoundaryWarm{DetailedInsts: 5_000, CacheInsts: 6_000, BPInsts: 5_000}},
	}
	for _, tc := range cases {
		if err := tc.warm.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid geometry", tc.name)
		}
	}
	ok := sim.BoundaryWarm{DetailedInsts: 5_000, FFInsts: 25_000, CacheInsts: 3_000, BPInsts: 5_000}
	if err := ok.Validate(); err != nil {
		t.Errorf("well-formed pyramid rejected: %v", err)
	}
}

// TestBoundaryKeyGeometry pins what the boundary-checkpoint identity
// covers: position, warming geometry, trace, and the warm-relevant
// config subset — but not the measured budgets, so runs with different
// segment counts share boundaries they place at the same position.
func TestBoundaryKeyGeometry(t *testing.T) {
	cfg := sim.WithUCP(core.DefaultConfig())
	cfg.WarmupInsts, cfg.MeasureInsts = 20_000, 40_000
	warm := sim.DefaultBoundaryWarm()
	base := sim.BoundaryKey(cfg, "trace-a", 30_000, warm)

	other := cfg
	other.WarmupInsts, other.MeasureInsts = 10_000, 80_000
	if sim.BoundaryKey(other, "trace-a", 30_000, warm) != base {
		t.Error("instruction budgets leak into the boundary key")
	}
	if sim.BoundaryKey(cfg, "trace-b", 30_000, warm) == base {
		t.Error("trace identity not in the boundary key")
	}
	if sim.BoundaryKey(cfg, "trace-a", 30_001, warm) == base {
		t.Error("boundary position not in the boundary key")
	}
	w2 := warm
	w2.FFInsts += 1
	if sim.BoundaryKey(cfg, "trace-a", 30_000, w2) == base {
		t.Error("warming geometry not in the boundary key")
	}
}
