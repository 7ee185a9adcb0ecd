// Package wpar is the parallel executor for one simulation run: the run
// is split into spans of its measured region, every span is simulated
// independently (sim.RunSegment) on a fresh machine whose boundary
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
// Adaptive sampling (SamplingConfig.TargetCI) composes by speculation:
// workers dispatch windows ahead of the pinned group-sequential stop
// schedule, completed windows feed the shared stop rule
// (sim.AdaptiveStop — the same type the serial controller runs)
// strictly in window-index order, and every speculatively simulated
// window past the stop point is discarded deterministically. A parallel
// adaptive run therefore stops at exactly the same window as a serial
// one; the speculative windows cost wall-clock the stop saves anyway,
// never correctness. A full-detail run has no stop rule: it runs every
// span.
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

	// runOne simulates one span with its own recover: a panicking span
	// fails this run, not the process (and not its siblings' worker
	// goroutines). Each in-flight span holds one Gate slot, so total
	// detailed-simulation concurrency across every parallel run sharing
	// the gate stays bounded.
	runOne := func(spec sim.SegmentSpec) (res sim.SegmentResult, err error) {
		if opts.Gate != nil {
			opts.Gate <- struct{}{}
			defer func() { <-opts.Gate }()
		}
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		return sim.RunSegment(spanCfg, newSource(), code, spec, warm, wc)
	}

	// Coordination state, all under mu. Every span's outcome lands in
	// its own index slot, so no two workers ever touch the same cell and
	// the reduction below never sees arrival order. The feeder hands out
	// span indices in order — for adaptive runs, issuance running ahead
	// of the stop rule is the speculation — and advance consumes
	// completed spans strictly in index order through the shared stop
	// rule. Once it stops, or meets an in-order failure the serial chain
	// would have hit, issuance ceases and everything past the stop point
	// is discarded. The stop decision is a pure function of the in-order
	// window sequence, so it is identical at every worker count.
	var (
		mu       sync.Mutex
		slots    = make([]*sim.SegmentResult, n)
		errs     = make([]error, n)
		consumed int
		stopAt   = -1 // inclusive index of the stop window; -1: none
		halted   bool
		as       = sim.NewAdaptiveStop(s, n)
	)
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

	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				res, err := runOne(specs[i])

				mu.Lock()
				if err != nil {
					errs[i] = err
				} else {
					slots[i] = &res
				}
				var rel float64
				refining := false
				if adaptive {
					advance()
					if consumed >= as.Min() {
						rel, refining = as.Rel(), true
					}
				}
				mu.Unlock()
				note(rel, refining)
			}
		}()
	}
	// Feed span indices in issue order. A send already blocked when the
	// consumer stops still hands one more speculative window to a
	// worker; it is discarded at reduction like every other window past
	// the stop point, so the result stays schedule-independent.
	for i := 0; i < n; i++ {
		mu.Lock()
		stopped := halted
		mu.Unlock()
		if stopped {
			break
		}
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()

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
