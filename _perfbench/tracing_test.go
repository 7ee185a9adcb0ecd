package main

import (
	"testing"

	"ucp/internal/core"
	"ucp/internal/isa"
	"ucp/internal/runq"
	"ucp/internal/sim"
	"ucp/internal/trace"
	"ucp/internal/wpar"
)

// Method carriers for building fake sources with every combination of
// the optional fast-path interfaces.
type (
	fakeBase  struct{}
	fakeBatch struct{}
	fakeSkip  struct{}
	fakeWarm  struct{}
)

func (*fakeBase) Next() (isa.Inst, bool)        { return isa.Inst{}, false }
func (*fakeBase) Reset()                        {}
func (fakeBatch) NextBatch([]isa.Inst) int      { return 0 }
func (fakeSkip) Skip(int) int                   { return 0 }
func (fakeWarm) SkipWarm(int, trace.Warmer) int { return 0 }
func (fakeWarmerBase) WarmFetch(uint64)         {}
func (fakeWarmerBase) WarmMem(uint64)           {}
func (fakeBranchWarmer) WarmCond(uint64, bool)  {}

type fakeWarmerBase struct{}

type fakeBranchWarmer struct{ fakeWarmerBase }

func optional(src trace.Source) [3]bool {
	_, b := src.(trace.BatchSource)
	_, k := src.(trace.Skipper)
	_, w := src.(trace.WarmSkipper)
	return [3]bool{b, k, w}
}

func TestWrapSourceMirrorsFastPaths(t *testing.T) {
	base := &fakeBase{}
	fakes := []trace.Source{
		base,
		struct {
			*fakeBase
			fakeBatch
		}{base, fakeBatch{}},
		struct {
			*fakeBase
			fakeSkip
		}{base, fakeSkip{}},
		struct {
			*fakeBase
			fakeWarm
		}{base, fakeWarm{}},
		struct {
			*fakeBase
			fakeBatch
			fakeSkip
		}{base, fakeBatch{}, fakeSkip{}},
		struct {
			*fakeBase
			fakeBatch
			fakeWarm
		}{base, fakeBatch{}, fakeWarm{}},
		struct {
			*fakeBase
			fakeSkip
			fakeWarm
		}{base, fakeSkip{}, fakeWarm{}},
		struct {
			*fakeBase
			fakeBatch
			fakeSkip
			fakeWarm
		}{base, fakeBatch{}, fakeSkip{}, fakeWarm{}},
	}
	prof, _ := trace.ProfileByName("crypto01")
	prog, err := trace.BuildProgram(prof)
	if err != nil {
		t.Fatal(err)
	}
	real := []trace.Source{
		trace.NewWalker(prog),
		trace.NewLimit(trace.NewWalker(prog), 1000),
		trace.NewScalar(trace.NewWalker(prog)),
		trace.ArenaFromSource(trace.NewWalker(prog), 1000).Cursor(),
		trace.NewSliceSource(nil),
	}
	seen := map[[3]bool]bool{}
	for i, src := range append(fakes, real...) {
		want := optional(src)
		seen[want] = true
		if got := optional(wrapSource(src, &srcStats{})); got != want {
			t.Errorf("source %d (%T): wrapped fast paths %v, inner %v", i, src, got, want)
		}
	}
	if len(seen) != 8 {
		t.Fatalf("covered %d of 8 fast-path combinations", len(seen))
	}

	for _, w := range []trace.Warmer{fakeWarmerBase{}, fakeBranchWarmer{}} {
		_, want := w.(trace.BranchWarmer)
		if _, got := wrapWarmer(w, &srcStats{}).(trace.BranchWarmer); got != want {
			t.Errorf("%T: wrapped BranchWarmer %v, inner %v", w, got, want)
		}
	}
}

// tracedCounts runs cfg over a wrapped walker and returns the digest
// and what the wrapper saw.
func tracedCounts(t *testing.T, cfg sim.Config, prog *trace.Program, wrap bool) (string, srcStats) {
	t.Helper()
	var st srcStats
	var src trace.Source = trace.NewLimit(trace.NewWalker(prog), int(cfg.WarmupInsts+cfg.MeasureInsts)+200_000)
	if wrap {
		src = wrapSource(src, &st)
	}
	res, err := sim.Run(cfg, src, prog, "crypto01")
	if err != nil {
		t.Fatal(err)
	}
	return res.DeterminismDigest(), st
}

func TestWrappedRunsDigestIdentically(t *testing.T) {
	prof, _ := trace.ProfileByName("crypto01")
	prog, err := trace.BuildProgram(prof)
	if err != nil {
		t.Fatal(err)
	}
	full := sim.WithUCP(core.DefaultConfig())
	full.WarmupInsts, full.MeasureInsts = 20_000, 50_000
	sampled := full
	sampled.Sampling = windowParSampling()
	sampled.WarmupInsts, sampled.MeasureInsts = 100_000, 400_000

	for _, cfg := range []sim.Config{full, sampled} {
		plain, _ := tracedCounts(t, cfg, prog, false)
		traced, st := tracedCounts(t, cfg, prog, true)
		if traced != plain {
			t.Errorf("sampled=%v: traced digest differs from untraced", cfg.Sampling.Enabled)
		}
		if st.delivered == 0 {
			t.Errorf("sampled=%v: wrapper delivered nothing", cfg.Sampling.Enabled)
		}
		if cfg.Sampling.Enabled && (st.skipWarmed == 0 || st.cond.calls == 0 || st.cache.calls == 0) {
			t.Errorf("sampled run bypassed the traced warming skip: %+v", st)
		}
	}

	// Window-parallel: per-window cursors, traced and not.
	n := int(sampled.WarmupInsts+sampled.MeasureInsts) + 200_000
	arena := trace.ArenaFromSource(trace.NewLimit(trace.NewWalker(prog), n), n)
	jt := &jobTrace{}
	runW := func(newSource func() trace.Source) string {
		res, err := wpar.Run(sampled, newSource, prog, "crypto01", wpar.Options{Workers: 2, Hook: jt.hook})
		if err != nil {
			t.Fatal(err)
		}
		return res.DeterminismDigest()
	}
	plain := runW(func() trace.Source { return arena.Cursor() })
	traced := runW(func() trace.Source { return jt.source(arena.Cursor()) })
	if traced != plain {
		t.Error("window-parallel: traced digest differs from untraced")
	}
	if len(jt.sources) != 4 {
		t.Errorf("window-parallel: %d window sources, want 4", len(jt.sources))
	}
}

// shrunk returns w with every job cut to the given budget, keeping
// each sampling geometry valid.
func shrunk(w *workload, warmup, measure uint64) *workload {
	c := *w
	c.jobs = func(p trace.Profile) []runq.Job {
		jobs := w.jobs(p)
		for i := range jobs {
			jobs[i].Warmup, jobs[i].Measure = warmup, measure
		}
		return jobs
	}
	return &c
}

// shortWorkloads are the benchmark's workloads at test budgets.
func shortWorkloads(t *testing.T) []*workload {
	t.Helper()
	budgets := map[string][2]uint64{
		"full-compare":    {20_000, 50_000},
		"sampled":         {100_000, 1_000_000},
		"sweep":           {300_000, 500_000},
		"window-parallel": {100_000, 400_000},
	}
	var out []*workload
	for _, w := range workloads {
		b, ok := budgets[w.name]
		if !ok {
			t.Fatalf("no test budget for workload %s", w.name)
		}
		out = append(out, shrunk(w, b[0], b[1]))
	}
	return out
}

// TestTracedWorkloadsMatchUntraced runs every workload's batch on the
// production path and on the traced path (runq's RunJob seam, traced
// cursors, the benchmark's own checkpoint store) and requires
// byte-identical digests and the same checkpoint activity.
func TestTracedWorkloadsMatchUntraced(t *testing.T) {
	for _, w := range shortWorkloads(t) {
		plainIn, err := w.setup(DefaultSeed, false)
		if err != nil {
			t.Fatal(err)
		}
		tracedIn, err := w.setup(DefaultSeed, true)
		if err != nil {
			t.Fatal(err)
		}
		plain, traced := plainIn.run(), tracedIn.run()
		for i := range plain {
			if plain[i].err != nil || traced[i].err != nil {
				t.Fatalf("%s/%s: errors %v / %v", w.name, plain[i].job, plain[i].err, traced[i].err)
			}
			if plain[i].job != traced[i].job || plain[i].res.DeterminismDigest() != traced[i].res.DeterminismDigest() {
				t.Errorf("%s/%s: traced digest differs from untraced", w.name, plain[i].job)
			}
		}
		pc, pr := plainIn.checkpointStats()
		tc, tr := tracedIn.checkpointStats()
		if pc != tc || pr != tr {
			t.Errorf("%s: checkpoints captured/restored %d/%d untraced, %d/%d traced", w.name, pc, pr, tc, tr)
		}
		m := layerMetrics(tracedIn, traced, 1)
		for name := range m {
			if _, ok := layerUnits[name]; !ok {
				t.Errorf("%s: layer metric %s has no unit", w.name, name)
			}
		}
		if m["sim.warming_s"]+m["sim.measuring_s"] <= 0 {
			t.Errorf("%s: no stage time recorded", w.name)
		}
	}
}
