package wpar_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ucp/internal/ckpt"
	"ucp/internal/core"
	"ucp/internal/isa"
	"ucp/internal/sim"
	"ucp/internal/trace"
	"ucp/internal/wpar"
)

// testArena decodes prof into an arena budgeted for end + slack; every
// span draws a fresh cursor from it, like runq does.
func testArena(t *testing.T, profName string, end uint64) (*trace.Arena, *trace.Program) {
	t.Helper()
	prof, ok := trace.ProfileByName(profName)
	if !ok {
		t.Fatalf("unknown profile %q", profName)
	}
	prog, err := trace.BuildProgram(prof)
	if err != nil {
		t.Fatalf("building %s: %v", profName, err)
	}
	return trace.ArenaFromSource(trace.NewWalker(prog), int(end)+200_000), prog
}

// sampledCfg is a cheap 4-window sampled geometry over crypto01-scale
// budgets: 20K warmup, 40K measured, one 2K window per 10K period.
func sampledCfg() sim.Config {
	cfg := sim.WithUCP(core.DefaultConfig())
	cfg.WarmupInsts, cfg.MeasureInsts = 20_000, 40_000
	cfg.Sampling = sim.SamplingConfig{
		Enabled:       true,
		PeriodInsts:   10_000,
		DetailedInsts: 2_000,
		WarmInsts:     2_000,
		FFWarmInsts:   5_000,
	}
	return cfg
}

// fullCfg is the full-detail counterpart of sampledCfg: the same 40K
// measured instructions, split into segments by Plan, after an 80K
// warmup — long enough that every segment boundary under
// sim.DefaultBoundaryWarm (5K detailed, 50K functional) has a skip zone
// for the boundary sweep to cross.
func fullCfg() sim.Config {
	cfg := sim.WithUCP(core.DefaultConfig())
	cfg.WarmupInsts, cfg.MeasureInsts = 80_000, 40_000
	return cfg
}

// mode is one of the executor's two span plans over 40K measured
// instructions: four measured windows, or four full-detail segments.
type mode struct {
	name    string
	cfg     sim.Config
	opts    wpar.Options
	profile string
	// sections are digest lines the mode's reduction must emit.
	sections []string
}

func modes() []mode {
	return []mode{
		{"sampled", sampledCfg(), wpar.Options{}, "crypto01",
			[]string{"sampled windows=4", "sampled w0 ipc=", "timepar segments=4", "timepar s3 "}},
		{"full-detail", fullCfg(), wpar.Options{Segments: 4}, "srv203",
			[]string{"timepar segments=4", "timepar s0 ", "timepar s3 "}},
	}
}

// end is where the mode's plan stops reading its stream.
func (m mode) end() uint64 { return m.cfg.WarmupInsts + m.cfg.MeasureInsts }

// TestWorkerCountInvariance is the tentpole determinism bar: the same
// parallel run must produce byte-identical digests at any worker count,
// in both modes — with a timepar section describing every span, plus
// the sampled section (window IPCs, CIs) for sampled configs.
func TestWorkerCountInvariance(t *testing.T) {
	for _, m := range modes() {
		t.Run(m.name, func(t *testing.T) {
			a, prog := testArena(t, m.profile, m.end())
			run := func(workers int) sim.Result {
				opts := m.opts
				opts.Workers = workers
				r, err := wpar.Run(m.cfg, func() trace.Source { return a.Cursor() }, prog, m.profile, opts)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return r
			}
			r1 := run(1)
			d1 := r1.DeterminismDigest()
			for _, w := range []int{2, 8} {
				if dw := run(w).DeterminismDigest(); dw != d1 {
					t.Fatalf("digest differs between workers=1 and workers=%d:\n%s\n---\n%s", w, d1, dw)
				}
			}
			for _, want := range m.sections {
				if !strings.Contains(d1, want) {
					t.Errorf("digest missing %q section:\n%s", want, d1)
				}
			}
			if sampled := m.cfg.Sampling.Enabled; sampled != (r1.Sampled != nil) {
				t.Fatalf("Sampled = %+v for a config with Sampling.Enabled=%v", r1.Sampled, sampled)
			}
			if r1.Sampled != nil && r1.Sampled.MeasuredInsts == 0 {
				t.Fatalf("Sampled = %+v, want populated window statistics", r1.Sampled)
			}
		})
	}
}

// TestMatchesSerialSampledGeometry: the parallel run must measure
// exactly the windows the serial sampled controller measures — same
// count, same measured instruction total — and estimate a close IPC
// (the residual is the window-independence error, bounded loosely here
// and measured precisely by the check.sh gate).
func TestMatchesSerialSampledGeometry(t *testing.T) {
	cfg := sampledCfg()
	a, prog := testArena(t, "crypto01", 60_000)

	serial, err := sim.Run(cfg, a.Cursor(), prog, "crypto01")
	if err != nil {
		t.Fatalf("serial sampled run: %v", err)
	}
	par, err := wpar.Run(cfg, func() trace.Source { return a.Cursor() }, prog, "crypto01",
		wpar.Options{Workers: 2})
	if err != nil {
		t.Fatalf("wpar run: %v", err)
	}
	if par.Sampled.Windows != serial.Sampled.Windows {
		t.Errorf("windows: parallel %d, serial %d", par.Sampled.Windows, serial.Sampled.Windows)
	}
	// Window ends are commit-granular (runUntil overshoots by up to one
	// commit window, deterministically but state-dependently), so the
	// totals may differ by a few instructions per window — never more.
	diff := int64(par.Sampled.MeasuredInsts) - int64(serial.Sampled.MeasuredInsts)
	if diff < 0 {
		diff = -diff
	}
	if diff > int64(16*par.Sampled.Windows) {
		t.Errorf("measured insts: parallel %d, serial %d (beyond commit-width overshoot)",
			par.Sampled.MeasuredInsts, serial.Sampled.MeasuredInsts)
	}
	if serial.IPC <= 0 {
		t.Fatalf("serial IPC = %g", serial.IPC)
	}
	if relErr := (par.IPC - serial.IPC) / serial.IPC; relErr > 0.10 || relErr < -0.10 {
		t.Errorf("window-independence IPC error %.4f exceeds the loose 10%% test bound (parallel %.4f, serial %.4f)",
			relErr, par.IPC, serial.IPC)
	}
}

// TestAdaptiveStopInvariant: adaptive+parallel must stop at exactly the
// same window at every worker count — speculative windows dispatched
// past the stop point are discarded deterministically, so the digests
// (which include the per-window list and the adaptive provenance line)
// are byte-identical too.
func TestAdaptiveStopInvariant(t *testing.T) {
	cfg := sampledCfg()
	cfg.MeasureInsts = 120_000 // 12-window budget
	cfg.Sampling.PeriodInsts = 10_000
	cfg.Sampling.TargetCI = 0.10
	a, prog := testArena(t, "crypto01", 140_000)

	run := func(workers int) sim.Result {
		r, err := wpar.Run(cfg, func() trace.Source { return a.Cursor() }, prog, "crypto01",
			wpar.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return r
	}
	r1 := run(1)
	d1 := r1.DeterminismDigest()
	for _, w := range []int{3, 8} {
		rw := run(w)
		if rw.Sampled.Windows != r1.Sampled.Windows {
			t.Fatalf("adaptive stop window differs: workers=1 measured %d, workers=%d measured %d",
				r1.Sampled.Windows, w, rw.Sampled.Windows)
		}
		if dw := rw.DeterminismDigest(); dw != d1 {
			t.Fatalf("adaptive digest differs between workers=1 and workers=%d:\n%s\n---\n%s", w, d1, dw)
		}
	}
	if r1.Sampled.TargetCI != cfg.Sampling.TargetCI || r1.Sampled.WindowBudget != 12 {
		t.Errorf("adaptive provenance = %+v, want TargetCI=%g budget=12", r1.Sampled, cfg.Sampling.TargetCI)
	}
	if !strings.Contains(d1, "sampled adaptive target=") {
		t.Errorf("digest missing adaptive line:\n%s", d1)
	}
}

// TestCheckpointRestoredRunIdentical: a run restoring all boundary
// checkpoints captured by an earlier run must be byte-identical to the
// cold run — and actually hit the store — in both modes.
func TestCheckpointRestoredRunIdentical(t *testing.T) {
	for _, m := range modes() {
		t.Run(m.name, func(t *testing.T) {
			a, prog := testArena(t, m.profile, m.end())
			store := ckpt.NewStore("")
			run := func(st *ckpt.Store) sim.Result {
				opts := m.opts
				opts.Workers, opts.Checkpoints, opts.TraceID = 2, st, "test:"+a.ID()
				r, err := wpar.Run(m.cfg, func() trace.Source { return a.Cursor() }, prog, m.profile, opts)
				if err != nil {
					t.Fatalf("wpar run: %v", err)
				}
				return r
			}
			cold := run(nil)
			captured := run(store)
			if store.Len() == 0 {
				t.Fatal("capturing run published no boundary checkpoints")
			}
			hitsBefore := store.Hits()
			restored := run(store)
			if store.Hits() <= hitsBefore {
				t.Fatal("restore run never hit the checkpoint store")
			}
			cd := cold.DeterminismDigest()
			if d := captured.DeterminismDigest(); d != cd {
				t.Fatalf("capturing run digest differs from cold:\n%s\n---\n%s", d, cd)
			}
			if d := restored.DeterminismDigest(); d != cd {
				t.Fatalf("checkpoint-restored run digest differs from cold:\n%s\n---\n%s", d, cd)
			}
		})
	}
}

// TestFullDetailSpansFromPlan: a full-detail config is split by Plan
// over Options.Segments, boundary-warmed by sim.DefaultBoundaryWarm,
// and reduces without a sampled section.
func TestFullDetailSpansFromPlan(t *testing.T) {
	cfg := fullCfg()
	a, prog := testArena(t, "crypto01", 120_000)
	r, err := wpar.Run(cfg, func() trace.Source { return a.Cursor() }, prog, "crypto01",
		wpar.Options{Segments: 3, Workers: 2})
	if err != nil {
		t.Fatalf("full-detail run: %v", err)
	}
	if r.Sampled != nil {
		t.Errorf("full-detail run carries a sampled section: %+v", r.Sampled)
	}
	specs := wpar.Plan(cfg.WarmupInsts, cfg.MeasureInsts, 3)
	if r.TimePar == nil || r.TimePar.Segments != len(specs) {
		t.Fatalf("TimePar = %+v, want %d planned segments", r.TimePar, len(specs))
	}
	for i, spec := range specs {
		if got := r.TimePar.Boundaries[i]; got != spec.Start {
			t.Errorf("segment %d starts at %d, want the planned %d", i, got, spec.Start)
		}
	}
}

// TestSampledIgnoresSegments: a sampled config runs one span per
// measured window at any Options.Segments — 0 included — so the
// segment count never changes a sampled run's bytes.
func TestSampledIgnoresSegments(t *testing.T) {
	cfg := sampledCfg()
	a, prog := testArena(t, "crypto01", 60_000)
	run := func(segments int) sim.Result {
		r, err := wpar.Run(cfg, func() trace.Source { return a.Cursor() }, prog, "crypto01",
			wpar.Options{Segments: segments, Workers: 2})
		if err != nil {
			t.Fatalf("segments=%d: %v", segments, err)
		}
		return r
	}
	r0 := run(0)
	if r0.Sampled == nil || r0.Sampled.Windows != 4 || r0.TimePar == nil || r0.TimePar.Segments != 4 {
		t.Fatalf("segments=0: Sampled = %+v, TimePar = %+v, want 4 parallel windows", r0.Sampled, r0.TimePar)
	}
	d0 := r0.DeterminismDigest()
	for _, n := range []int{1, 7} {
		if d := run(n).DeterminismDigest(); d != d0 {
			t.Fatalf("segments=%d digest differs from segments=0:\n%s\n---\n%s", n, d, d0)
		}
	}
}

// TestResultMissingWindow: reducing span slots with a hole must fail
// loudly — a silently short reduction would report wrong numbers with a
// valid-looking digest — while a prefix without the hole (an adaptive
// stop before it) reduces fine.
func TestResultMissingWindow(t *testing.T) {
	for _, m := range modes() {
		t.Run(m.name, func(t *testing.T) {
			slots := []*sim.SegmentResult{
				{Index: 0, Start: 0, End: 10, Insts: 10, Cycles: 20},
				nil,
				{Index: 2, Start: 20, End: 30, Insts: 10, Cycles: 20},
			}
			if _, err := wpar.Reduce(m.cfg, "x", slots, 3, false); err == nil || !strings.Contains(err.Error(), "missing span 1") {
				t.Fatalf("hole not detected: err = %v", err)
			}
			if _, err := wpar.Reduce(m.cfg, "x", slots[:1], 3, true); err != nil {
				t.Fatalf("one-span prefix reduction failed: %v", err)
			}
		})
	}
}

// panicSource panics once its stream position reaches at. Only Next is
// offered, so every skip and batch read goes through the counter.
type panicSource struct {
	src     trace.Source
	pos, at uint64
}

func (p *panicSource) Next() (isa.Inst, bool) {
	if p.pos == p.at {
		panic(fmt.Sprintf("stream position %d", p.at))
	}
	p.pos++
	return p.src.Next()
}

func (p *panicSource) Reset() { p.src.Reset(); p.pos = 0 }

// TestSpanErrors drives the executor's failure paths: a stream that
// ends 15K before the plan's end, and one that panics there. Every span
// reads its stream from position zero, so exactly the spans reaching
// past that point (spans 2 and 3 of both plans) fail. The run must return an error
// naming span 2 — the lowest failing index, whatever order the spans
// finish in — identical at 1 and 4 workers, and a panic must surface as
// an error rather than take the process down.
func TestSpanErrors(t *testing.T) {
	for _, m := range modes() {
		failAt := m.end() - 15_000
		full, prog := testArena(t, m.profile, m.end())
		short := trace.ArenaFromSource(trace.NewWalker(prog), int(failAt))
		sources := map[string]func() trace.Source{
			"stream-ends": func() trace.Source { return short.Cursor() },
			"panics":      func() trace.Source { return &panicSource{src: full.Cursor(), at: failAt} },
		}
		for _, c := range []string{"stream-ends", "panics"} {
			t.Run(m.name+"/"+c, func(t *testing.T) {
				var first string
				for _, workers := range []int{1, 4} {
					opts := m.opts
					opts.Workers = workers
					_, err := wpar.Run(m.cfg, sources[c], prog, m.profile, opts)
					if err == nil {
						t.Fatalf("workers=%d: run succeeded past a failing span", workers)
					}
					if !strings.HasPrefix(err.Error(), "wpar: span 2: ") {
						t.Fatalf("workers=%d: error does not name the lowest failing span 2: %v", workers, err)
					}
					if c == "panics" && !strings.Contains(err.Error(), fmt.Sprintf("panic: stream position %d", failAt)) {
						t.Fatalf("workers=%d: panic not reported: %v", workers, err)
					}
					if first == "" {
						first = err.Error()
					} else if err.Error() != first {
						t.Fatalf("error differs across worker counts:\n%s\n---\n%s", first, err)
					}
				}
			})
		}
	}
}

// TestSweepErrors drives the boundary sweep's failure paths: a sampled
// plan whose windows sit 20K apart, over a stream that ends — or panics
// — at 65K, inside the skip zone shared by spans 2 and 3 (which start
// their functional tier at 71K and 91K) but past everything spans 0 and
// 1 read. Only the sweep reaches 65K: its step toward span 2's boundary
// fails, and that failure must name span 2 — the lowest failing index,
// as it would be with per-span cold warming — at 1 and 4 workers,
// surfacing a panic as an error.
func TestSweepErrors(t *testing.T) {
	const failAt = 65_000
	cfg := sampledCfg()
	cfg.MeasureInsts = 80_000
	cfg.Sampling.PeriodInsts = 20_000
	full, prog := testArena(t, "crypto01", 100_000)
	short := trace.ArenaFromSource(trace.NewWalker(prog), failAt)
	sources := map[string]func() trace.Source{
		"stream-ends": func() trace.Source { return short.Cursor() },
		"panics":      func() trace.Source { return &panicSource{src: full.Cursor(), at: failAt} },
	}
	for _, c := range []string{"stream-ends", "panics"} {
		t.Run(c, func(t *testing.T) {
			var first string
			for _, workers := range []int{1, 4} {
				_, err := wpar.Run(cfg, sources[c], prog, "crypto01", wpar.Options{Workers: workers})
				if err == nil {
					t.Fatalf("workers=%d: run succeeded past a failing sweep", workers)
				}
				if !strings.HasPrefix(err.Error(), "wpar: span 2: boundary sweep: ") {
					t.Fatalf("workers=%d: error does not name span 2's boundary sweep: %v", workers, err)
				}
				if c == "panics" && !strings.Contains(err.Error(), "panic: stream position 65000") {
					t.Fatalf("workers=%d: panic not reported: %v", workers, err)
				}
				if first == "" {
					first = err.Error()
				} else if err.Error() != first {
					t.Fatalf("error differs across worker counts:\n%s\n---\n%s", first, err)
				}
			}
		})
	}
}

// countingCursor is an arena cursor that counts the instructions its
// warming skip crosses.
type countingCursor struct {
	*trace.Cursor
	warmed *atomic.Int64
}

func (c countingCursor) SkipWarm(n int, w trace.Warmer) int {
	k := c.Cursor.SkipWarm(n, w)
	c.warmed.Add(int64(k))
	return k
}

// sourceCounter hands out counting cursors over one arena and totals
// what they did.
type sourceCounter struct {
	a       *trace.Arena
	sources atomic.Int64
	warmed  atomic.Int64
}

func (s *sourceCounter) newSource() trace.Source {
	s.sources.Add(1)
	return countingCursor{Cursor: s.a.Cursor(), warmed: &s.warmed}
}

// TestSweepWork pins the sweep's cost model on a 4-window sampled plan.
// Without a store, the plan skip-warms only the last span's skip zone
// — max p, not the Σ p of per-span cold warming — over one source per
// span (the sweep machine's source serves the last span). A capturing
// pass does the same, and a restoring pass builds no sweep machine: it
// opens one source per span and skip-warms nothing.
func TestSweepWork(t *testing.T) {
	cfg := sampledCfg()
	specs, warm := cfg.SampleWindows(), cfg.Sampling.BoundaryWarm()
	last := specs[len(specs)-1].Start - warm.DetailedInsts - warm.FFInsts
	a, prog := testArena(t, "crypto01", 60_000)
	store := ckpt.NewStore("")
	run := func(st *ckpt.Store) (sources, warmed int64, digest string) {
		sc := &sourceCounter{a: a}
		r, err := wpar.Run(cfg, sc.newSource, prog, "crypto01",
			wpar.Options{Workers: 2, Checkpoints: st, TraceID: "test:" + a.ID()})
		if err != nil {
			t.Fatal(err)
		}
		return sc.sources.Load(), sc.warmed.Load(), r.DeterminismDigest()
	}
	n := len(specs)
	for _, pass := range []struct {
		name    string
		st      *ckpt.Store
		skipped uint64
	}{{"cold", nil, last}, {"capture", store, last}, {"restore", store, 0}} {
		sources, warmed, digest := run(pass.st)
		if sources != int64(n) || warmed != int64(pass.skipped) {
			t.Errorf("%s pass: %d sources skip-warmed %d instructions, want %d sources and %d",
				pass.name, sources, warmed, n, pass.skipped)
		}
		if _, _, want := run(nil); digest != want {
			t.Errorf("%s pass digest differs from cold", pass.name)
		}
	}
	if store.Len() != n || store.Hits() != n {
		t.Errorf("store: %d captured, %d hits; want %d of each", store.Len(), store.Hits(), n)
	}
}

// within runs f, failing t if it has not returned after d: a store
// lease nobody releases blocks the next Acquire of its key forever.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s blocked for %v: a discarded boundary kept its store lease", what, d)
	}
}

// TestAdaptiveStopLeavesNothingBehind: an adaptive run that stops early
// discards the windows it dispatched past the stop point, and with them
// every boundary the sweep produced ahead of them — no goroutine
// outlives the run, and no store lease stays held (later runs over the
// same store, adaptive or full, would block on it).
func TestAdaptiveStopLeavesNothingBehind(t *testing.T) {
	cfg := sampledCfg()
	cfg.MeasureInsts = 120_000   // 12-window budget
	cfg.Sampling.TargetCI = 0.25 // met at the first look, 8 windows
	a, prog := testArena(t, "crypto01", 140_000)
	store := ckpt.NewStore("")
	opts := wpar.Options{Checkpoints: store, TraceID: "test:" + a.ID()}
	newSource := func() trace.Source { return a.Cursor() }
	for _, workers := range []int{1, 3, 8} {
		before := runtime.NumGoroutine()
		opts.Workers = workers
		var (
			r   sim.Result
			err error
		)
		within(t, time.Minute, fmt.Sprintf("adaptive run at workers=%d", workers), func() {
			r, err = wpar.Run(cfg, newSource, prog, "crypto01", opts)
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !r.Sampled.TargetMet || r.Sampled.Windows >= r.Sampled.WindowBudget {
			t.Fatalf("workers=%d: run did not stop early: %+v", workers, r.Sampled)
		}
		// Goroutines signal completion just before they return.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("workers=%d: %d goroutines after the run, %d before", workers, n, before)
		}
	}

	full := cfg
	full.Sampling.TargetCI = 0
	opts.Workers = 2
	var err error
	within(t, time.Minute, "full run over the adaptive runs' store", func() {
		_, err = wpar.Run(full, newSource, prog, "crypto01", opts)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTrailingRemainderWindow: a period-unaligned MeasureInsts gets a
// trailing window over the remainder, in parallel exactly as in serial.
func TestTrailingRemainderWindow(t *testing.T) {
	cfg := sampledCfg()
	cfg.MeasureInsts = 45_000 // 4 full periods + 5K remainder >= warm+measure
	a, prog := testArena(t, "crypto01", 65_000)
	r, err := wpar.Run(cfg, func() trace.Source { return a.Cursor() }, prog, "crypto01",
		wpar.Options{Workers: 4})
	if err != nil {
		t.Fatalf("wpar run: %v", err)
	}
	if r.Sampled.Windows != 5 {
		t.Fatalf("windows = %d, want 4 full + 1 trailing", r.Sampled.Windows)
	}
	if got := r.TimePar.Boundaries[4]; got != 20_000+45_000-2_000 {
		t.Errorf("trailing window starts at %d, want measure end - DetailedInsts", got)
	}
}

// TestPlan pins the segment geometry: contiguous coverage of exactly
// [warmup, warmup+measure), lengths differing by at most one with the
// remainder on the leading segments (the trailing segment is the
// partial one), and clamping when asked for more segments than
// instructions.
func TestPlan(t *testing.T) {
	specs := wpar.Plan(1_000, 10_007, 4)
	if len(specs) != 4 {
		t.Fatalf("got %d segments, want 4", len(specs))
	}
	wantLens := []uint64{2_502, 2_502, 2_502, 2_501} // 10_007 = 4*2501 + 3
	pos := uint64(1_000)
	for i, s := range specs {
		if s.Index != i {
			t.Errorf("segment %d carries index %d", i, s.Index)
		}
		if s.Start != pos {
			t.Errorf("segment %d starts at %d, want %d (gap or overlap)", i, s.Start, pos)
		}
		if got := s.End - s.Start; got != wantLens[i] {
			t.Errorf("segment %d spans %d insts, want %d", i, got, wantLens[i])
		}
		pos = s.End
	}
	if pos != 11_007 {
		t.Errorf("plan ends at %d, want warmup+measure = 11_007", pos)
	}

	// More segments than instructions: clamp to one inst per segment.
	specs = wpar.Plan(0, 3, 10)
	if len(specs) != 3 {
		t.Fatalf("overclamped plan has %d segments, want 3", len(specs))
	}
	for i, s := range specs {
		if s.End-s.Start != 1 {
			t.Errorf("clamped segment %d spans %d insts, want 1", i, s.End-s.Start)
		}
	}

	// Degenerate inputs collapse to a single serial segment.
	for _, n := range []int{0, -3} {
		if got := len(wpar.Plan(5, 100, n)); got != 1 {
			t.Errorf("n=%d planned %d segments, want 1", n, got)
		}
	}
}

// TestSegmentsOneMatchesSerial: a one-segment full-detail run must
// route through the serial engine and be byte-identical to sim.Run —
// the identity anchor every other invariance test leans on.
func TestSegmentsOneMatchesSerial(t *testing.T) {
	cfg := fullCfg()
	a, prog := testArena(t, "crypto01", 120_000)

	serial, err := sim.Run(cfg, a.Cursor(), prog, "crypto01")
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	one, err := wpar.Run(cfg, func() trace.Source { return a.Cursor() }, prog, "crypto01",
		wpar.Options{Segments: 1})
	if err != nil {
		t.Fatalf("wpar run: %v", err)
	}
	if got, want := one.DeterminismDigest(), serial.DeterminismDigest(); got != want {
		t.Fatalf("segments=1 digest differs from serial:\n%s\n---\n%s", got, want)
	}
	if one.TimePar != nil {
		t.Error("segments=1 result carries TimeParStats; it must be the serial result verbatim")
	}
}

// TestMoreSegmentsThanInsts: asking for more segments than measured
// instructions must clamp, not fail or emit empty spans.
func TestMoreSegmentsThanInsts(t *testing.T) {
	cfg := sim.Baseline()
	cfg.WarmupInsts, cfg.MeasureInsts = 2_000, 5
	a, prog := testArena(t, "crypto01", 2_005)
	r, err := wpar.Run(cfg, func() trace.Source { return a.Cursor() }, prog, "crypto01",
		wpar.Options{Segments: 64, Workers: 4})
	if err != nil {
		t.Fatalf("clamped run failed: %v", err)
	}
	if r.TimePar == nil || r.TimePar.Segments != 5 {
		t.Fatalf("TimePar = %+v, want 5 clamped segments", r.TimePar)
	}
	if r.Insts < 5 {
		t.Errorf("measured %d insts, want >= 5", r.Insts)
	}
}
