// Package wpar is the parallel executor for one simulation run: the run
// is split into spans of its measured region, every span is simulated
// independently (sim.RunSegmentAt) on a fresh machine whose boundary
// state is rebuilt by the warming pyramid — or restored from a
// content-addressed internal/ckpt checkpoint when a store is attached —
// the spans run concurrently on a bounded worker pool over per-span
// arena cursors, and their results reduce in span-index order. The
// combined sim.Result, determinism digest included, is therefore
// byte-identical at every worker count, the same bar internal/runq's
// job-level parallelism already clears.
//
// The two run modes differ only in how the spans are planned:
//
//   - Full-detail configs split the measured region into
//     Options.Segments contiguous segments (Plan), boundary-warmed by
//     Options.Warm. One segment runs the serial engine instead,
//     byte-identical to sim.Run.
//   - Sampled configs run one span per measured window of the sampling
//     schedule (sim.Config.SampleWindows) at any Options.Segments,
//     boundary-warmed with the horizons the sampling geometry already
//     specifies (sim.SamplingConfig.BoundaryWarm). The reduction adds
//     the SampledStats block the serial sampled controller reports.
//
// Boundary cost. A cold span skip-warms its whole skip zone from
// position zero: with unbounded cache and predictor horizons (the
// conservative sampling posture, and sim.DefaultBoundaryWarm) that zone
// is [0, p) for a span whose functional tier starts at p, so W evenly
// spaced spans warm Σ p — O(W²) for a run whose serial chain crosses
// the stream once. Plans under such a geometry
// (sim.BoundaryWarm.Sweepable) therefore share one boundary sweep
// (sim.BoundarySweep): a single machine skip-warms forward through the
// nested zones in span order and hands each span its zone-end state as
// a checkpoint, and the span runs the rest of its pyramid — functional
// tier, detailed warm, measured span — on its own machine. The swept
// state is bit-equal to the cold one, so results are unchanged and
// skip-warming drops to max p. The sweep is the run's one sequential
// part: it occupies one worker (and one Gate slot) while the other
// workers run spans, stays at most Workers checkpoints ahead of them,
// and caps the spans beside it at Workers−1 so no more machines are
// live than workers. With one worker, sweep steps and spans alternate.
// With a store attached, spans whose boundary checkpoint hits cost the
// sweep nothing, and the sweep machine is only built on the first miss.
// Bounded horizons (any nonzero CacheInsts/BPInsts) keep per-span cold
// warming: their boundary costs O(horizon), not O(position), so there
// is nothing to share.
//
// Full-detail segments take the sweep too. They number about as many
// as cores, so their cold warms already ran in parallel, but the sweep
// still removes Σ p − max p of work: over four alternating runs of the
// time-parallel gate on a 2-core host, per-span warming took w1
// 0.97–1.17 s and w2 0.56–0.73 s, the sweep 0.73–0.82 s and
// 0.38–0.56 s, with scaling in the same noisy band (1.44–2.00× against
// 1.42–2.09×).
//
// Adaptive sampling (SamplingConfig.TargetCI) composes by speculation:
// workers dispatch windows ahead of the pinned group-sequential stop
// schedule, completed windows feed the shared stop rule
// (sim.AdaptiveStop — the same type the serial controller runs)
// strictly in window-index order, and every speculatively simulated
// window past the stop point is discarded deterministically — as is
// every boundary the sweep produced past it, store lease included. A
// parallel adaptive run therefore stops at exactly the same window as a
// serial one; the speculative windows cost wall-clock the stop saves
// anyway, never correctness. A full-detail run has no stop rule: it
// runs every span.
//
// The price is a bounded boundary-warming error: each span's start
// state comes from the warming pyramid alone, whereas a serial run
// carries cycle-accurate history — and, in sampled mode, converging
// long-history predictor state above the BP-warm horizon — across the
// boundary. EXPERIMENTS.md quantifies the IPC delta; the check.sh
// time-parallel and window-parallel gates record it per run in
// BENCH_tpar.json and BENCH_wpar.json.
package wpar

import (
	"fmt"
	"runtime"
	"sync"

	"ucp/internal/ckpt"
	"ucp/internal/core"
	"ucp/internal/sim"
	"ucp/internal/trace"
)

// Options configures one parallel run.
type Options struct {
	// Segments is the number of full-detail segments (clamped to the
	// measured instruction count; <= 1 runs the serial engine). Sampled
	// configs ignore it: their windows are the spans.
	Segments int
	// Warm is the full-detail boundary-warming geometry (zero value:
	// sim.DefaultBoundaryWarm). Sampled configs derive theirs from the
	// sampling geometry instead.
	Warm sim.BoundaryWarm
	// Workers bounds concurrent span simulations (GOMAXPROCS when
	// <= 0). Results are byte-identical at any value.
	Workers int
	// Checkpoints, when non-nil, caches each boundary's functional-warm
	// state under a content-addressed key (sim.BoundaryKey, with
	// single-flight capture): the first run captures, later runs — or
	// concurrent runs sharing a boundary — restore, byte-identically.
	// TraceID must then identify the instruction stream exactly
	// (sim.WarmCheckpoints).
	Checkpoints *ckpt.Store
	TraceID     string
	// Gate, when non-nil, bounds span concurrency across *multiple*
	// concurrent parallel runs sharing it (internal/runq sizes one gate
	// at its worker count so a parallel job cooperates with the pool
	// instead of oversubscribing the host). Each in-flight span holds
	// one slot.
	Gate chan struct{}
	// Hook receives progress notifications (observability only; runs
	// are byte-identical with and without one). Unlike sim's hooks it
	// may be invoked from multiple goroutines; calls are serialized.
	Hook sim.ProgressFunc
}

// Plan splits the measured region [warmup, warmup+measure) into
// contiguous segments: segments of base length measure/n with the
// remainder spread one instruction each over the leading segments, so
// lengths differ by at most one. n is clamped to [1, measure] — more
// segments than instructions would create empty spans.
func Plan(warmup, measure uint64, n int) []sim.SegmentSpec {
	if n < 1 {
		n = 1
	}
	if uint64(n) > measure && measure > 0 {
		n = int(measure)
	}
	base := measure / uint64(n)
	rem := measure % uint64(n)
	specs := make([]sim.SegmentSpec, n)
	start := warmup
	for i := range specs {
		length := base
		if uint64(i) < rem {
			length++
		}
		specs[i] = sim.SegmentSpec{Index: i, Start: start, End: start + length}
		start += length
	}
	return specs
}

// Run executes cfg in parallel spans over the trace. newSource must
// return a fresh, independent stream at position zero on every call
// (arena cursors: each span gets its own); it is called from multiple
// goroutines. A full-detail run with Segments <= 1 (or a measured
// region too short to split) goes through the serial engine and is
// byte-identical to sim.Run.
func Run(cfg sim.Config, newSource func() trace.Source, code core.CodeInfo, traceName string, opts Options) (sim.Result, error) {
	if err := cfg.Validate(); err != nil {
		return sim.Result{}, err
	}
	var wc *sim.WarmCheckpoints
	if opts.Checkpoints != nil {
		wc = &sim.WarmCheckpoints{Store: opts.Checkpoints, TraceID: opts.TraceID}
	}

	s := cfg.Sampling
	spanCfg, warm := cfg, opts.Warm
	var specs []sim.SegmentSpec
	budget := 0
	if s.Enabled {
		if err := cfg.ValidateSegments(2); err != nil {
			return sim.Result{}, err
		}
		warm = s.BoundaryWarm()
		if err := warm.Validate(); err != nil {
			return sim.Result{}, fmt.Errorf("wpar: sampling geometry does not map onto a boundary warm: %w", err)
		}
		specs = cfg.SampleWindows()
		budget = len(specs)
		if s.Adaptive() && s.MaxWindows > 0 && s.MaxWindows < budget {
			specs = specs[:s.MaxWindows]
		}
		// Each window runs as a full-detail segment: Sampling is
		// stripped so the per-window machine is the plain detailed
		// engine (RunSegment's contract), and the warm above carries the
		// sampling horizons. Window boundaries therefore share
		// sim.BoundaryKey checkpoint addresses with any full-detail
		// segment boundary at the same position and horizons.
		spanCfg.Sampling = sim.SamplingConfig{}
	} else {
		specs = Plan(cfg.WarmupInsts, cfg.MeasureInsts, opts.Segments)
		if len(specs) <= 1 {
			return sim.RunHooked(cfg, newSource(), code, traceName, wc, opts.Hook)
		}
		if warm == (sim.BoundaryWarm{}) {
			warm = sim.DefaultBoundaryWarm()
		}
		if err := warm.Validate(); err != nil {
			return sim.Result{}, err
		}
	}
	n := len(specs)
	adaptive := s.Adaptive()

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	// Serialized progress: completions arrive from any worker, but the
	// hook contract is single-goroutine.
	var noteMu sync.Mutex
	noted := 0
	note := func(rel float64, refining bool) {
		if opts.Hook == nil {
			return
		}
		noteMu.Lock()
		defer noteMu.Unlock()
		noted++
		if refining {
			opts.Hook(sim.Progress{Stage: sim.StageRefining, WindowsDone: noted, WindowsTotal: n, HalfWidth: rel})
		} else {
			opts.Hook(sim.Progress{Stage: sim.StageMeasuring, WindowsDone: noted, WindowsTotal: n})
		}
	}
	if opts.Hook != nil {
		opts.Hook(sim.Progress{Stage: sim.StageWarming, WindowsDone: 0, WindowsTotal: n})
	}

	// Sweepable plans build their spans' boundary states in one pass
	// (sim.BoundarySweep; see the package doc).
	var sweep *sim.BoundarySweep
	if warm.Sweepable() {
		var err error
		if sweep, err = sim.NewBoundarySweep(spanCfg, newSource, code, warm); err != nil {
			return sim.Result{}, err
		}
	}

	// Coordination state, all under mu. Every span's outcome lands in
	// its own index slot, so no two workers ever touch the same cell and
	// the reduction below never sees arrival order. Spans are issued in
	// index order — for adaptive runs, issuance running ahead of the
	// stop rule is the speculation — and advance consumes completed
	// spans strictly in index order through the shared stop rule. Once
	// it stops, or meets an in-order failure the serial chain would have
	// hit, issuance ceases and everything past the stop point is
	// discarded. The stop decision is a pure function of the in-order
	// window sequence, so it is identical at every worker count.
	//
	// With a sweep, a span is issued only once the sweep has produced
	// its boundary. Worker 0 is the sweeper: it advances the sweep, at
	// most workers swept boundaries ahead of the spans that finished
	// (each is a ~1.4 MiB checkpoint; store hits cost nothing and do not
	// count), runs the last span itself — on the sweep machine, when the
	// sweep reached it — and only then joins the other workers, so no
	// more machines (~11 MiB each) are live than workers and every span
	// opens one stream. With one worker, sweep steps and spans
	// alternate.
	var (
		mu       sync.Mutex
		wake     = sync.NewCond(&mu)
		slots    = make([]*sim.SegmentResult, n)
		errs     = make([]error, n)
		consumed int
		stopAt   = -1 // inclusive index of the stop window; -1: none
		halted   bool
		as       = sim.NewAdaptiveStop(s, n)
		issued   int                       // spans handed to workers, in index order
		produced = n                       // spans whose boundary is ready, in index order
		limit    = n                       // spans below the first sweep failure
		spanEnd  = n                       // spans issued to workers (the sweeper runs the rest)
		held     int                       // swept boundaries whose spans have not finished
		bounds   = make([]sim.Boundary, n) // produced, not yet issued boundaries
	)
	if sweep != nil {
		produced, spanEnd = 0, n-1
	}
	advance := func() {
		for !halted && consumed < n && (slots[consumed] != nil || errs[consumed] != nil) {
			k := consumed
			if errs[k] != nil {
				halted = true
				return
			}
			consumed++
			if _, stop := as.Observe(slots[k].Insts, slots[k].Cycles); stop {
				stopAt, halted = k, true
			}
		}
	}

	// gated runs f holding one Gate slot, recovering a panic into an
	// error: a panicking span or sweep step fails this run, not the
	// process (and not its siblings' worker goroutines). Every in-flight
	// span and sweep step holds a slot, so total simulation concurrency
	// across every parallel run sharing the gate stays bounded.
	gated := func(f func() error) (err error) {
		if opts.Gate != nil {
			opts.Gate <- struct{}{}
			defer func() { <-opts.Gate }()
		}
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		return f()
	}
	// runSpan simulates span i from boundary b and records it (mu not
	// held). Without a sweep the span looks its boundary up in the store
	// itself.
	runSpan := func(i int, b sim.Boundary) {
		swept := b.Swept()
		var res sim.SegmentResult
		err := gated(func() (err error) {
			if sweep == nil {
				b = sim.AcquireBoundary(spanCfg, wc, specs[i], warm)
			}
			res, err = sim.RunSegmentAt(spanCfg, newSource, code, specs[i], warm, b)
			return err
		})

		mu.Lock()
		if err != nil {
			errs[i] = err
		} else {
			slots[i] = &res
		}
		if swept {
			held--
		}
		var rel float64
		refining := false
		if adaptive {
			advance()
			if consumed >= as.Min() {
				rel, refining = as.Rel(), true
			}
		}
		wake.Broadcast()
		mu.Unlock()
		note(rel, refining)
	}
	// sweepStep advances the sweep to boundary k (mu not held) and, at
	// the last one, runs its span. The store lookup stays outside the
	// gate: it may wait on another run's capture of the same boundary,
	// whose span needs a slot to finish.
	sweepStep := func(k int) {
		last := k == n-1
		b := sim.AcquireBoundary(spanCfg, wc, specs[k], warm)
		err := gated(func() (err error) {
			b, err = sweep.Advance(specs[k], b, last)
			return err
		})
		mu.Lock()
		wake.Broadcast()
		if err != nil {
			b.Discard() // a panic skips Advance's own cleanup
			// The failing step fails its span and every later one: none
			// of them can reach its boundary.
			for i := k; i < n; i++ {
				errs[i] = fmt.Errorf("boundary sweep: %w", err)
			}
			limit = k
			if adaptive {
				advance()
			}
			mu.Unlock()
			return
		}
		produced = k + 1
		if b.Swept() {
			held++
		}
		if !last {
			bounds[k] = b
		} else if halted {
			held--
			b.Discard()
		}
		run := last && !halted
		mu.Unlock()
		if run {
			runSpan(k, b)
		}
	}

	// worker takes tasks until none is left for it: the sweeper the next
	// sweep step while the sweep is not too far ahead, everyone the next
	// span whose boundary is ready (the sweeper only once the sweep is
	// done, unless it is the only worker).
	worker := func(sweeper bool) {
		mu.Lock()
		defer mu.Unlock()
		for !halted {
			sweeps := sweeper && produced < limit
			end := min(limit, spanEnd)
			switch {
			case sweeps && held < workers:
				k := produced
				mu.Unlock()
				sweepStep(k)
				mu.Lock()
			case issued < min(produced, end) && (!sweeps || workers == 1):
				i := issued
				issued++
				b := bounds[i]
				bounds[i] = sim.Boundary{}
				mu.Unlock()
				runSpan(i, b)
				mu.Lock()
			case issued >= end && !sweeps:
				return
			default:
				wake.Wait()
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker(sweep != nil && w == 0)
		}()
	}
	wg.Wait()
	// their store leases.
	for _, b := range bounds {
		b.Discard()
	}

	include := n
	if stopAt >= 0 {
		include = stopAt + 1
	}
	// Deterministic error selection over the included prefix: the
	// lowest-indexed failure wins, independent of completion order. An
	// adaptive run halts at its first in-order failure, so every span
	// below it has succeeded.
	for i, err := range errs[:include] {
		if err != nil {
			return sim.Result{}, fmt.Errorf("wpar: span %d: %w", i, err)
		}
	}
	return reduce(cfg, traceName, slots[:include], budget, stopAt >= 0)
}

// reduce folds the span results — in span order, never arrival order —
// into one sim.Result. Counter blocks are summed measured-region deltas
// (integer addition, exact in any grouping); histograms merge into
// fresh clones, so the slots themselves are never mutated. TimePar
// records every span. Sampled configs add a SampledStats block shaped
// like the serial controller's, with the per-window IPC/MPKI
// observations and their Student-t 95% intervals; budget is the fixed
// schedule's window count and targetMet reports an adaptive stop.
func reduce(cfg sim.Config, traceName string, slots []*sim.SegmentResult, budget int, targetMet bool) (sim.Result, error) {
	r := sim.Result{Name: cfg.Name, Trace: traceName}
	t := &sim.TimeParStats{Segments: len(slots)}
	var (
		detailed    uint64
		ipcs, mpkis []float64
	)
	for i, c := range slots {
		if c == nil {
			return sim.Result{}, fmt.Errorf("wpar: reduce is missing span %d of %d", i, len(slots))
		}
		r.Insts += c.Insts
		r.Cycles += c.Cycles
		t.SkippedInsts += c.SkippedInsts
		t.FFInsts += c.FFInsts
		detailed += c.DetailedInsts
		sim.AddCounters(&r.FE, c.FE)
		sim.AddCounters(&r.Uop, c.Uop)
		sim.AddCounters(&r.UCP, c.UCP)
		sim.AddCounters(&r.L1I, c.L1I)
		if r.StreamLens == nil {
			r.StreamLens, r.RefillLat = c.StreamLens.Clone(), c.RefillLat.Clone()
		} else {
			r.StreamLens.Merge(c.StreamLens)
			r.RefillLat.Merge(c.RefillLat)
		}
		segIPC := 0.0
		if c.Cycles > 0 {
			segIPC = float64(c.Insts) / float64(c.Cycles)
			ipcs = append(ipcs, segIPC)
		}
		if c.Insts > 0 {
			mpkis = append(mpkis, float64(c.FE.CondMispredicts)/float64(c.Insts)*1000)
		}
		t.Boundaries = append(t.Boundaries, c.Start)
		t.SegInsts = append(t.SegInsts, c.Insts)
		t.SegCycles = append(t.SegCycles, c.Cycles)
		t.SegIPC = append(t.SegIPC, segIPC)
	}
	r.SetRates(r.FE, r.Uop)
	r.UCPStorageKB = slots[0].UCPStorageKB
	r.TimePar = t
	if cfg.Sampling.Enabled {
		r.Sampled = &sim.SampledStats{
			Windows:       len(ipcs),
			SkippedInsts:  t.SkippedInsts,
			FFInsts:       t.FFInsts,
			DetailedInsts: detailed,
			MeasuredInsts: r.Insts,
			WindowIPC:     ipcs,
			WindowMPKI:    mpkis,
		}
		r.Sampled.Finish(cfg.Sampling, budget, targetMet)
	}
	return r, nil
}
