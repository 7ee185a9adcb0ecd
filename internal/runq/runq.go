// Package runq schedules simulation runs across a worker pool and
// memoizes their results in a content-addressed cache — in-process
// always, on disk when a cache directory is configured.
//
// The experiment harness submits batches of (config, trace, budget)
// jobs; runq fans them out over Workers goroutines and returns results
// in submission order, so any report rendered from them is byte-for-byte
// identical at every worker count. Each distinct job is keyed by a
// SHA-256 digest of its full identity (see Key), executed at most once
// per key, and — with a cache directory — never recomputed across
// process restarts until the model or schema version stamp changes.
//
// Workers recover panics into per-job errors and retry a failed job
// once, so one broken configuration fails its own figure instead of
// taking down the whole evaluation. Progress and ETA reporting flow
// through an injected Clock: runq itself never reads the wall clock
// (the ucplint wallclock rule), the real clock is wired only in cmd/.
package runq

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ucp/internal/ckpt"
	"ucp/internal/core"
	"ucp/internal/sim"
	"ucp/internal/trace"
	"ucp/internal/wpar"
)

// Job is one simulation to run: cfg over a workload at the given
// instruction budgets. The workload is the synthetic Profile, or — when
// TraceFile is non-empty — a recorded .ucpt trace, which the pool
// decodes once into a shared trace.Arena regardless of how many jobs
// reference it. Warmup/Measure override the config's own
// WarmupInsts/MeasureInsts fields.
type Job struct {
	Config    sim.Config
	Profile   trace.Profile
	TraceFile string
	Warmup    uint64
	Measure   uint64

	// Segments > 1 runs the job time-parallel through internal/wpar,
	// its spans simulated concurrently on the pool's shared segment
	// gate and reduced in span order. Full-detail jobs split the
	// measured region into that many trace segments; sampled jobs
	// (Config.Sampling.Enabled) instead shard per measured window,
	// where the window plan and boundary warm come from the sampling
	// geometry and Segments is only the opt-in switch. Parallel results
	// differ from serial ones (counter blocks become measured-region
	// deltas and a bounded boundary-warming or window-independence
	// error applies; see EXPERIMENTS.md), so the parallel mode is part
	// of the cache key.
	// 0 and 1 are the serial engine.
	Segments int
}

// traceLabel names the job's workload in errors and reports.
func (j Job) traceLabel() string {
	if j.TraceFile != "" {
		return j.TraceFile
	}
	return j.Profile.Name
}

// Result provenance values for JobResult.Source.
const (
	// SourceRun marks a freshly executed simulation.
	SourceRun = "run"
	// SourceDisk marks a result replayed from the on-disk cache.
	SourceDisk = "disk"
	// SourceMemo marks a result served from the in-process memo (or
	// copied from an identical job earlier in the same batch).
	SourceMemo = "memo"
)

// JobResult pairs a job with its outcome. Exactly one of Result/Err is
// meaningful: Err != nil means the job failed (after the retry).
type JobResult struct {
	Job    Job
	Key    string
	Result sim.Result
	Err    error
	// Source records where the result came from: SourceRun, SourceDisk,
	// or SourceMemo.
	Source string
	// Attempts counts executions of this job (0 when served from a
	// cache, 2 when the first attempt panicked or errored).
	Attempts int
}

// Clock returns elapsed time since an origin chosen by the caller. It
// exists so progress/ETA reporting works without runq ever touching the
// wall clock; cmd/ wires time.Since behind it.
type Clock func() time.Duration

// Options configures a Pool.
type Options struct {
	// Workers bounds concurrent simulations (GOMAXPROCS when <= 0).
	Workers int
	// CacheDir enables the on-disk result cache when non-empty.
	CacheDir string
	// Clock supplies elapsed time for ETA estimates (nil: no ETA).
	Clock Clock
	// Progress receives scheduler progress lines (nil: silent). It must
	// not alias the report writer: progress output is nondeterministic
	// by nature (completion-ordered, timed).
	Progress io.Writer
	// UseArena decodes each synthetic workload once per (profile,
	// budget) into a shared trace.Arena and runs jobs over cheap
	// cursors, instead of walking the generator per job. Recorded-trace
	// jobs always go through a shared arena. Results are byte-identical
	// either way.
	UseArena bool
	// Checkpoints enables functional-warm checkpoint reuse for sampled
	// jobs (sim.WarmCheckpoints): jobs sharing a warm key pay the
	// sampling fast-forward once per pool instead of once per job, with
	// byte-identical results. In-memory unless CkptDir is also set.
	Checkpoints bool
	// CkptDir persists checkpoints next to the result cache so later
	// processes reuse them (implies Checkpoints).
	CkptDir string
	// CkptMaxBytes bounds CkptDir's on-disk footprint: after each
	// persisted checkpoint, least-recently-verified blobs are pruned
	// until the directory fits (0: unbounded). Boundary checkpoints
	// from time-parallel runs accumulate one blob per segment boundary,
	// so long-lived services (sweepd) should set a bound.
	CkptMaxBytes int64
	// CkptNow supplies wall time (unix nanoseconds) for the pruning
	// order's verify-stamps. Like Clock it is injected from cmd/ only;
	// nil degrades pruning to least-recently-written order.
	CkptNow func() int64
	// RunJob overrides the job execution body (nil: the real
	// simulation). It is the seam sweepd's tests use to inject slow,
	// failing, or panicking jobs; the pool still wraps it with panic
	// recovery, the retry, the memo, and the caches.
	RunJob func(Job, sim.ProgressFunc) (sim.Result, error)
}

// Stats counts what the pool did, cumulatively over its lifetime.
type Stats struct {
	// Runs counts simulations actually executed (including failed ones,
	// excluding retries).
	Runs int
	// MemoHits counts jobs served from the in-process memo.
	MemoHits int
	// DiskHits counts jobs replayed from the on-disk cache.
	DiskHits int
	// Retries counts second attempts after a panic or error.
	Retries int
	// Failures counts jobs that still failed after their retry.
	Failures int
}

// Pool executes jobs. RunAll is not reentrant — call it from one
// goroutine at a time — but RunOne is safe from any number of
// goroutines concurrently (the sweepd server's executors lean on
// this), and either may run while the other is in flight: every key is
// still executed at most once, enforced by the per-key single-flight.
type Pool struct {
	opts Options

	mu      sync.Mutex
	memo    map[string]memoEntry
	flights map[string]chan struct{}
	progs   map[string]*progEntry
	arenas  map[string]*arenaEntry
	stats   Stats
	done    int // jobs completed in the current RunAll, for progress

	// ckpts is the warm-checkpoint store shared by every sampled job
	// and every time-parallel boundary (nil when checkpoints are
	// disabled).
	ckpts *ckpt.Store

	// segGate bounds detailed-simulation concurrency across every
	// time-parallel job on this pool: each in-flight segment holds one
	// slot, so a -segments job cooperates with the worker pool instead
	// of multiplying it (workers × segments goroutines would
	// oversubscribe the host).
	segGate chan struct{}

	// runJob is the execution seam; Options.RunJob (or tests)
	// substitute failure modes.
	runJob func(Job, sim.ProgressFunc) (sim.Result, error)
}

type memoEntry struct {
	res sim.Result
	err error
}

type progEntry struct {
	once sync.Once
	prog *trace.Program
	err  error
}

type arenaEntry struct {
	once  sync.Once
	ready chan struct{} // closed once arena and err are set
	arena *trace.Arena
	err   error
	// streamed is set once a reader has taken the generator instead of
	// waiting for the build (overlapSource).
	streamed atomic.Bool
}

// build runs f at most once per entry; every caller returns after it.
func (e *arenaEntry) build(f func() (*trace.Arena, error)) {
	e.once.Do(func() {
		e.arena, e.err = f()
		close(e.ready)
	})
}

// New builds a pool.
func New(opts Options) *Pool {
	p := &Pool{
		opts:    opts,
		memo:    make(map[string]memoEntry),
		flights: make(map[string]chan struct{}),
		progs:   make(map[string]*progEntry),
		arenas:  make(map[string]*arenaEntry),
	}
	if opts.Checkpoints || opts.CkptDir != "" {
		p.ckpts = ckpt.NewStoreLimit(opts.CkptDir, opts.CkptMaxBytes, opts.CkptNow)
	}
	p.segGate = make(chan struct{}, p.workers())
	p.runJob = p.simulate
	if opts.RunJob != nil {
		p.runJob = opts.RunJob
	}
	return p
}

// Runner is the job-execution surface the experiment harness depends
// on. A local *Pool implements it; so does the sweepd client, which is
// how every existing sweep runs remote behind a -server flag.
type Runner interface {
	// RunAll executes the batch and returns one JobResult per job in
	// submission order (see Pool.RunAll for the contract).
	RunAll(jobs []Job) []JobResult
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// CheckpointStats reports warm-checkpoint store activity: blobs held
// (one per distinct warm key exercised) and restore hits. Both are zero
// when checkpoints are disabled.
func (p *Pool) CheckpointStats() (captured, restored int) {
	if p.ckpts == nil {
		return 0, 0
	}
	return p.ckpts.Len(), p.ckpts.Hits()
}

// ArenaCount reports how many shared decoded trace arenas the pool
// holds (one per distinct recorded file or materialized synthetic
// workload) — the sweepd statz surface exposes it as the shared-tier
// footprint.
func (p *Pool) ArenaCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.arenas)
}

func (p *Pool) workers() int {
	if p.opts.Workers > 0 {
		return p.opts.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Program returns the built program for prof, constructing it at most
// once per parameterization. Programs are immutable once built (all
// walk state lives in trace.Walker), so one instance is shared by every
// concurrent run over the same workload.
func (p *Pool) Program(prof trace.Profile) (*trace.Program, error) {
	key, err := profileKey(prof)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	e := p.progs[key]
	if e == nil {
		e = &progEntry{}
		p.progs[key] = e
	}
	p.mu.Unlock()
	e.once.Do(func() { e.prog, e.err = trace.BuildProgram(prof) })
	return e.prog, e.err
}

// arenaEntry returns the once-guarded entry for an arena cache key.
func (p *Pool) arenaEntry(key string) *arenaEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.arenas[key]
	if e == nil {
		e = &arenaEntry{ready: make(chan struct{})}
		p.arenas[key] = e
	}
	return e
}

// arena returns the arena for a cache key, building it on first use.
func (p *Pool) arena(key string, build func() (*trace.Arena, error)) (*trace.Arena, error) {
	e := p.arenaEntry(key)
	e.build(build)
	return e.arena, e.err
}

// FileArena returns the shared decoded arena for a recorded trace file,
// reading and decoding it at most once per pool however many jobs
// reference it. Cursors handed out by the arena are independent, so
// concurrent workers share one copy of the decoded stream.
func (p *Pool) FileArena(path string) (*trace.Arena, error) {
	return p.arena("file\x00"+path, func() (*trace.Arena, error) {
		return trace.LoadArena(path)
	})
}

// profileArena materializes a synthetic workload's stream into a shared
// arena, once per (profile parameterization, budget). With async the
// build runs on its own goroutine, which ends with the build, and the
// entry is returned at once; readers wait on its ready channel, and
// the pool keeps the arena for later jobs even if this one ends first.
func (p *Pool) profileArena(prof trace.Profile, budget int, async bool) (*arenaEntry, error) {
	pk, err := profileKey(prof)
	if err != nil {
		return nil, err
	}
	e := p.arenaEntry(fmt.Sprintf("prof\x00%s\x00%d", pk, budget))
	build := func() {
		e.build(func() (*trace.Arena, error) {
			prog, err := p.Program(prof)
			if err != nil {
				return nil, err
			}
			return trace.ArenaFromSource(trace.NewLimit(trace.NewWalker(prog), budget), budget), nil
		})
	}
	if async {
		go build()
		return e, nil
	}
	build()
	return e, e.err
}

// jobKey resolves a job's cache key, reading the trace file's content
// digest through the shared arena for recorded-trace jobs.
func (p *Pool) jobKey(job Job) (string, error) {
	if job.TraceFile == "" {
		return keyWith(job, "")
	}
	a, err := p.FileArena(job.TraceFile)
	if err != nil {
		return "", err
	}
	return keyWith(job, a.ID())
}

// RunAll executes the batch and returns one JobResult per job, in
// submission order regardless of completion order or worker count.
// Jobs with identical keys are executed once; duplicates receive a copy
// of the leader's outcome. RunAll never panics on a bad job — failures
// come back in JobResult.Err.
func (p *Pool) RunAll(jobs []Job) []JobResult {
	results := make([]JobResult, len(jobs))
	// Resolve keys; the first job with each key leads, later duplicates
	// in the same batch copy its outcome after the barrier.
	dupOf := make([]int, len(jobs))
	leader := make(map[string]int, len(jobs))
	var queue []int
	for i, j := range jobs {
		dupOf[i] = -1
		results[i] = JobResult{Job: j}
		key, err := p.jobKey(j)
		if err != nil {
			results[i].Err = err
			continue
		}
		results[i].Key = key
		if li, dup := leader[key]; dup {
			dupOf[i] = li
			continue
		}
		leader[key] = i
		queue = append(queue, i)
	}

	p.mu.Lock()
	p.done = 0
	p.mu.Unlock()
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < p.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				results[i] = p.execute(results[i])
				p.noteProgress(len(queue))
			}
		}()
	}
	for _, i := range queue {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()

	for i, li := range dupOf {
		if li < 0 {
			continue
		}
		results[i].Result = results[li].Result
		results[i].Err = results[li].Err
		results[i].Source = SourceMemo
	}
	return results
}

// RunOne resolves a single job with an optional per-run progress hook.
// Unlike RunAll it is safe to call from any number of goroutines
// concurrently: callers racing on the same key coalesce onto one
// execution through the pool's single-flight, and every later call is
// a memo hit. The hook observes the winning execution only — a
// coalesced caller returns when the leader publishes, without
// re-observing its stages.
func (p *Pool) RunOne(job Job, hook sim.ProgressFunc) JobResult {
	jr := JobResult{Job: job}
	key, err := p.jobKey(job)
	if err != nil {
		jr.Err = err
		return jr
	}
	jr.Key = key
	return p.executeHooked(jr, hook)
}

// execute resolves one unique job on the RunAll path (no hook).
func (p *Pool) execute(jr JobResult) JobResult {
	return p.executeHooked(jr, nil)
}

// executeHooked resolves one job: memo, then the per-key single-flight
// gate, then disk, then simulation with panic recovery and a single
// retry. RunAll's loop-spawned workers and any number of concurrent
// RunOne callers go through it; every touch of shared pool state is
// under p.mu. The single-flight extends ckpt.Store's admission pattern
// to whole jobs: the first arrival for a key becomes the leader and
// executes; everyone else blocks until the leader publishes the memo
// entry (result or error), then returns it as a memo hit.
//
//ucplint:guarded
func (p *Pool) executeHooked(jr JobResult, hook sim.ProgressFunc) JobResult {
	for {
		p.mu.Lock()
		if e, ok := p.memo[jr.Key]; ok {
			p.stats.MemoHits++
			p.mu.Unlock()
			jr.Result, jr.Err, jr.Source = e.res, e.err, SourceMemo
			return jr
		}
		flight, inFlight := p.flights[jr.Key]
		if !inFlight {
			p.flights[jr.Key] = make(chan struct{})
			p.mu.Unlock()
			break // leader: this call executes the job
		}
		p.mu.Unlock()
		<-flight
		// The leader always publishes a memo entry (even on failure)
		// before closing the flight, so the next lap resolves.
	}
	defer func() {
		p.mu.Lock()
		done := p.flights[jr.Key]
		delete(p.flights, jr.Key)
		p.mu.Unlock()
		close(done)
	}()

	if res, ok := p.loadDisk(jr.Key); ok {
		jr.Result, jr.Source = res, SourceDisk
		p.mu.Lock()
		p.stats.DiskHits++
		p.memo[jr.Key] = memoEntry{res: res}
		p.mu.Unlock()
		return jr
	}

	var res sim.Result
	var err error
	for attempt := 1; attempt <= 2; attempt++ {
		jr.Attempts = attempt
		res, err = recoverRun(p.runJob, jr.Job, hook)
		if err == nil {
			break
		}
		if attempt == 1 {
			p.mu.Lock()
			p.stats.Retries++
			p.mu.Unlock()
		}
	}
	jr.Source = SourceRun
	if err != nil {
		jr.Err = fmt.Errorf("%s on %s: %w", jr.Job.Config.Name, jr.Job.traceLabel(), err)
	} else {
		jr.Result = res
		if serr := p.storeDisk(jr.Key, jr.Job, res); serr != nil && p.opts.Progress != nil {
			fmt.Fprintf(p.opts.Progress, "runq: cache write failed: %v\n", serr)
		}
	}
	p.mu.Lock()
	p.stats.Runs++
	if err != nil {
		p.stats.Failures++
	}
	p.memo[jr.Key] = memoEntry{res: jr.Result, err: jr.Err}
	p.mu.Unlock()
	return jr
}

// recoverRun invokes run, converting a panic into an error so one bad
// configuration cannot take down the process.
func recoverRun(run func(Job, sim.ProgressFunc) (sim.Result, error), job Job, hook sim.ProgressFunc) (res sim.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return run(job, hook)
}

// simulate is the real job body: resolve the workload stream (shared
// arena or per-job walker), apply the instruction budgets, and run the
// machine — serially, or through wpar when Job.Segments > 1
// (per-segment for full-detail jobs, per-window for sampled ones) —
// with warm-checkpoint reuse when the pool has a store.
func (p *Pool) simulate(job Job, hook sim.ProgressFunc) (sim.Result, error) {
	cfg := job.Config
	cfg.WarmupInsts, cfg.MeasureInsts = job.Warmup, job.Measure
	budget := int(cfg.WarmupInsts+cfg.MeasureInsts) + 200_000
	parallel := job.Segments > 1

	var (
		newSource func() trace.Source
		code      core.CodeInfo
		traceID   string
	)
	if job.TraceFile != "" {
		a, err := p.FileArena(job.TraceFile)
		if err != nil {
			return sim.Result{}, err
		}
		newSource = func() trace.Source { return a.Cursor() }
		traceID = "file:" + a.ID()
	} else {
		prog, err := p.Program(job.Profile)
		if err != nil {
			return sim.Result{}, err
		}
		code = prog
		pk, err := profileKey(job.Profile)
		if err != nil {
			return sim.Result{}, err
		}
		// The warm-checkpoint trace identity deliberately excludes the
		// budget: the stream prefix a checkpoint replays is independent
		// of where the run's limit lies.
		traceID = "profile:" + pk
		walk := func() trace.Source { return trace.NewLimit(trace.NewWalker(prog), budget) }
		switch {
		case parallel && p.workers() > 1:
			// Time-parallel jobs (segment- or window-sharded) always run
			// over the shared arena, whatever Options.UseArena says:
			// segment boundaries lean on the cursor's O(1) seek, and
			// per-segment generator walks would turn every boundary
			// placement into an O(position) replay. With a worker to
			// spare, the build overlaps the run (overlapSource).
			e, err := p.profileArena(job.Profile, budget, true)
			if err != nil {
				return sim.Result{}, err
			}
			newSource = func() trace.Source { return &overlapSource{e: e, walk: walk} }
		case parallel || p.opts.UseArena:
			e, err := p.profileArena(job.Profile, budget, false)
			if err != nil {
				return sim.Result{}, err
			}
			newSource = func() trace.Source { return e.arena.Cursor() }
		default:
			newSource = walk
		}
	}
	if parallel {
		// Sampled jobs treat Job.Segments only as the opt-in switch (the
		// key normalizes it away): wpar plans their windows and boundary
		// warm from the sampling geometry.
		return wpar.Run(cfg, newSource, code, job.traceLabel(), wpar.Options{
			Segments:    job.Segments,
			Workers:     p.workers(),
			Checkpoints: p.ckpts,
			TraceID:     traceID,
			Gate:        p.segGate,
			Hook:        hook,
		})
	}
	var wc *sim.WarmCheckpoints
	if p.ckpts != nil {
		wc = &sim.WarmCheckpoints{Store: p.ckpts, TraceID: traceID}
	}
	return sim.RunHooked(cfg, newSource(), code, job.traceLabel(), wc, hook)
}

// noteProgress emits a progress/ETA line roughly every 5% of the batch
// (and at the end). Progress is observability only — it goes to the
// injected writer, never the report, and needs no determinism. Workers
// call it concurrently; the whole body runs under p.mu.
//
//ucplint:guarded
func (p *Pool) noteProgress(total int) {
	if p.opts.Progress == nil || total == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	stride := total / 20
	if stride < 1 {
		stride = 1
	}
	if p.done != total && p.done%stride != 0 {
		return
	}
	line := fmt.Sprintf("runq: %d/%d jobs (%.0f%%)", p.done, total, 100*float64(p.done)/float64(total))
	if p.opts.Clock != nil {
		elapsed := p.opts.Clock()
		line += fmt.Sprintf(" elapsed %s", elapsed.Round(100*time.Millisecond))
		if p.done < total && p.done > 0 {
			eta := time.Duration(float64(elapsed) / float64(p.done) * float64(total-p.done))
			line += fmt.Sprintf(" eta %s", eta.Round(100*time.Millisecond))
		}
	}
	fmt.Fprintln(p.opts.Progress, line)
}
