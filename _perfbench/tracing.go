package main

import (
	"sort"
	"sync"
	"time"

	"ucp/internal/isa"
	"ucp/internal/sim"
	"ucp/internal/trace"
)

// Per-layer tracing is done entirely from outside the simulator: a
// wrapping trace.Source times every call the simulator makes into the
// trace layer, a wrapping trace.Warmer times the warming-skip callbacks
// into the branch predictor (WarmCond) and the cache hierarchy
// (WarmFetch/WarmMem), and the sim.ProgressFunc hook timestamps stage
// transitions. The wrappers change no simulated outcome: they forward
// every call unchanged and expose exactly the optional fast-path
// interfaces of what they wrap, so sim takes the same code path with
// tracing on and off (tracing_test.go).

var clockOrigin = time.Now()

// nowNs reads the monotonic clock in nanoseconds since process start.
func nowNs() int64 { return int64(time.Since(clockOrigin)) }

// timerCost is the measured cost of one nowNs read. A timed interval
// spans the call plus one read, so it is subtracted from every timed
// call.
var timerCost = calibrateTimer()

func calibrateTimer() int64 {
	const n = 20000
	best := int64(1 << 62)
	for rep := 0; rep < 5; rep++ {
		t0 := nowNs()
		for i := 0; i < n; i++ {
			_ = nowNs()
		}
		if per := (nowNs() - t0) / n; per < best {
			best = per
		}
	}
	return best
}

// sampleMask selects which per-instruction calls are timed: one call in
// sampleEvery. Every call is counted; the timed subset is scaled up to
// estimate the total, which keeps the tracing overhead of the hottest
// callbacks (tens of millions of calls per run) to a few percent.
const (
	sampleEvery = 16
	sampleMask  = sampleEvery - 1
)

// callClock counts calls and accumulates the duration of a sampled
// subset of them.
type callClock struct {
	calls uint64
	timed uint64
	ns    int64
}

// start reports whether this call is timed and, if so, its start time.
func (c *callClock) start() (int64, bool) {
	c.calls++
	if c.calls&sampleMask != 0 {
		return 0, false
	}
	return nowNs(), true
}

func (c *callClock) stop(t0 int64) {
	d := nowNs() - t0 - timerCost
	if d < 0 {
		d = 0
	}
	c.timed++
	c.ns += d
}

// seconds estimates the total time spent in all counted calls.
func (c *callClock) seconds() float64 {
	if c.timed == 0 {
		return 0
	}
	return float64(c.ns) / float64(c.timed) * float64(c.calls) / 1e9
}

func (c *callClock) add(o callClock) {
	c.calls += o.calls
	c.timed += o.timed
	c.ns += o.ns
}

// srcStats is what one wrapped source saw. It is written by the single
// goroutine that owns the source and read after the run.
type srcStats struct {
	created    int64 // nowNs when the source was handed out
	firstBatch int64 // nowNs at the start of the first NextBatch (0: none)
	lastCall   int64 // nowNs at the end of the latest delivery call

	next      callClock // scalar Next (sampled timing)
	delivered uint64    // instructions delivered by Next and NextBatch
	batchNs   int64     // NextBatch, every call timed

	skipped    uint64 // instructions passed over by Skip
	skipNs     int64
	skipWarmed uint64 // instructions passed over by SkipWarm
	skipWarmNs int64  // SkipWarm including its warmer callbacks

	cond  callClock // WarmCond: branch-predictor training
	cache callClock // WarmFetch + WarmMem: cache hierarchy warming
}

// deliverSeconds is the estimated time spent delivering instructions.
func (s *srcStats) deliverSeconds() float64 {
	return s.next.seconds() + float64(s.batchNs)/1e9
}

// inSourceSeconds is all time spent inside calls into the source.
func (s *srcStats) inSourceSeconds() float64 {
	return s.deliverSeconds() + float64(s.skipNs+s.skipWarmNs)/1e9
}

// consumed is every instruction the source advanced past.
func (s *srcStats) consumed() uint64 { return s.delivered + s.skipped + s.skipWarmed }

// tsrc forwards to the wrapped source, recording into st.
type tsrc struct {
	inner trace.Source
	st    *srcStats
}

func (s *tsrc) Next() (isa.Inst, bool) {
	t0, timed := s.st.next.start()
	in, ok := s.inner.Next()
	if timed {
		s.st.next.stop(t0)
	}
	if ok {
		s.st.delivered++
	}
	return in, ok
}

func (s *tsrc) Reset() { s.inner.Reset() }

func (s *tsrc) nextBatch(dst []isa.Inst) int {
	t0 := nowNs()
	n := s.inner.(trace.BatchSource).NextBatch(dst)
	t1 := nowNs()
	if s.st.firstBatch == 0 {
		s.st.firstBatch = t0
	}
	s.st.lastCall = t1
	s.st.batchNs += t1 - t0
	s.st.delivered += uint64(n)
	return n
}

func (s *tsrc) skip(n int) int {
	t0 := nowNs()
	k := s.inner.(trace.Skipper).Skip(n)
	s.st.skipNs += nowNs() - t0
	s.st.skipped += uint64(k)
	return k
}

func (s *tsrc) skipWarm(n int, w trace.Warmer) int {
	t0 := nowNs()
	k := s.inner.(trace.WarmSkipper).SkipWarm(n, wrapWarmer(w, s.st))
	s.st.skipWarmNs += nowNs() - t0
	s.st.skipWarmed += uint64(k)
	return k
}

// One method-carrying type per optional interface; wrapSource composes
// exactly the ones the inner source implements.
type batchM struct{ s *tsrc }

func (m batchM) NextBatch(dst []isa.Inst) int { return m.s.nextBatch(dst) }

type skipM struct{ s *tsrc }

func (m skipM) Skip(n int) int { return m.s.skip(n) }

type skipWarmM struct{ s *tsrc }

func (m skipWarmM) SkipWarm(n int, w trace.Warmer) int { return m.s.skipWarm(n, w) }

// wrapSource returns a traced view of src whose method set offers
// trace.BatchSource, trace.Skipper and trace.WarmSkipper exactly when
// src does.
func wrapSource(src trace.Source, st *srcStats) trace.Source {
	s := &tsrc{inner: src, st: st}
	_, b := src.(trace.BatchSource)
	_, k := src.(trace.Skipper)
	_, w := src.(trace.WarmSkipper)
	switch {
	case b && k && w:
		return struct {
			*tsrc
			batchM
			skipM
			skipWarmM
		}{s, batchM{s}, skipM{s}, skipWarmM{s}}
	case b && k:
		return struct {
			*tsrc
			batchM
			skipM
		}{s, batchM{s}, skipM{s}}
	case b && w:
		return struct {
			*tsrc
			batchM
			skipWarmM
		}{s, batchM{s}, skipWarmM{s}}
	case k && w:
		return struct {
			*tsrc
			skipM
			skipWarmM
		}{s, skipM{s}, skipWarmM{s}}
	case b:
		return struct {
			*tsrc
			batchM
		}{s, batchM{s}}
	case k:
		return struct {
			*tsrc
			skipM
		}{s, skipM{s}}
	case w:
		return struct {
			*tsrc
			skipWarmM
		}{s, skipWarmM{s}}
	}
	return s
}

// twarm times the cache-side warming callbacks.
type twarm struct {
	inner trace.Warmer
	st    *srcStats
}

func (w twarm) WarmFetch(lineAddr uint64) {
	t0, timed := w.st.cache.start()
	w.inner.WarmFetch(lineAddr)
	if timed {
		w.st.cache.stop(t0)
	}
}

func (w twarm) WarmMem(addr uint64) {
	t0, timed := w.st.cache.start()
	w.inner.WarmMem(addr)
	if timed {
		w.st.cache.stop(t0)
	}
}

// twarmBranch adds the predictor-training callback for warmers that
// implement trace.BranchWarmer.
type twarmBranch struct {
	twarm
	bw trace.BranchWarmer
}

func (w twarmBranch) WarmCond(pc uint64, taken bool) {
	t0, timed := w.st.cond.start()
	w.bw.WarmCond(pc, taken)
	if timed {
		w.st.cond.stop(t0)
	}
}

// wrapWarmer returns a traced view of w that implements
// trace.BranchWarmer exactly when w does.
func wrapWarmer(w trace.Warmer, st *srcStats) trace.Warmer {
	if w == nil {
		return nil
	}
	tw := twarm{inner: w, st: st}
	if bw, ok := w.(trace.BranchWarmer); ok {
		return twarmBranch{twarm: tw, bw: bw}
	}
	return tw
}

// jobTrace collects one job's stage timestamps and source statistics.
// Sources may be created from several goroutines (window-parallel
// runs), so the source list is guarded; each srcStats is then owned by
// one goroutine until the run returns.
type jobTrace struct {
	start, measure, end int64 // nowNs: run start, warming→measuring, run end
	windowEnds          []int64
	warmSkipAtMeasure   uint64 // SkipWarm+Next work done before measuring

	mu      sync.Mutex
	sources []*srcStats
}

// source wraps a fresh stream for this job.
func (j *jobTrace) source(src trace.Source) trace.Source {
	st := &srcStats{created: nowNs()}
	j.mu.Lock()
	j.sources = append(j.sources, st)
	j.mu.Unlock()
	return wrapSource(src, st)
}

// hook records stage transitions. It runs on the simulating goroutine
// (serialized by wpar for window-parallel runs).
func (j *jobTrace) hook(p sim.Progress) {
	t := nowNs()
	switch {
	case p.Stage == sim.StageWarming:
		if j.start == 0 {
			j.start = t
		}
	case p.WindowsDone == 0:
		j.measure = t
		j.mu.Lock()
		for _, s := range j.sources {
			j.warmSkipAtMeasure += s.skipWarmed + s.next.calls
		}
		j.mu.Unlock()
	default:
		j.windowEnds = append(j.windowEnds, t)
	}
}

// total sums the statistics of every source the job used.
func (j *jobTrace) total() srcStats {
	var t srcStats
	for _, s := range j.sources {
		t.next.add(s.next)
		t.delivered += s.delivered
		t.batchNs += s.batchNs
		t.skipped += s.skipped
		t.skipNs += s.skipNs
		t.skipWarmed += s.skipWarmed
		t.skipWarmNs += s.skipWarmNs
		t.cond.add(s.cond)
		t.cache.add(s.cache)
	}
	return t
}

// stageSeconds splits the job's run into warming and measuring time.
// Window-parallel jobs have one source per window: warming is the time
// from handing a window its source to its first detailed fetch (the
// boundary fast-forward), measuring the rest of that window's life.
func (j *jobTrace) stageSeconds() (warming, measuring float64) {
	if j.measure != 0 {
		return float64(j.measure-j.start) / 1e9, float64(j.end-j.measure) / 1e9
	}
	for _, s := range j.sources {
		if s.firstBatch == 0 {
			continue
		}
		warming += float64(s.firstBatch-s.created) / 1e9
		measuring += float64(s.lastCall-s.firstBatch) / 1e9
	}
	return warming, measuring
}

// windowMillis lists per-window host times: the interval between
// consecutive window completions for serial runs (full-detail runs are
// one window), each window source's lifetime for window-parallel runs.
func (j *jobTrace) windowMillis() []float64 {
	var out []float64
	if j.measure != 0 {
		prev := j.measure
		for _, t := range j.windowEnds {
			out = append(out, float64(t-prev)/1e6)
			prev = t
		}
		return out
	}
	for _, s := range j.sources {
		if s.firstBatch != 0 {
			out = append(out, float64(s.lastCall-s.created)/1e6)
		}
	}
	return out
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
