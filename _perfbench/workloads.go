package main

import (
	"fmt"
	"sync"

	"ucp/internal/ckpt"
	"ucp/internal/core"
	"ucp/internal/harness"
	"ucp/internal/runq"
	"ucp/internal/sim"
	"ucp/internal/trace"
	"ucp/internal/wpar"
)

// DefaultSeed keeps every profile's own generator seed; pins.json holds
// the full outcome pins for it. Any other seed derives new generator
// seeds, so the programs (and their simulated outcomes) change while
// their shape — footprint, branch mix, working set — stays the same.
const DefaultSeed = 1

// profileFor returns the named profile with its generator seed derived
// from the benchmark seed.
func profileFor(name string, seed uint64) (trace.Profile, error) {
	p, ok := trace.ProfileByName(name)
	if !ok {
		return p, fmt.Errorf("unknown profile %q", name)
	}
	if seed != DefaultSeed {
		p.Seed = splitmix64(p.Seed ^ splitmix64(seed))
	}
	return p, nil
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// workload is one benchmark input: a batch of simulation jobs and the
// way people run it.
type workload struct {
	name    string
	profile string
	workers int
	// jobs builds the batch over the (seeded) profile.
	jobs func(trace.Profile) []runq.Job
	// pool configures the runq pool the batch runs on. Window-parallel
	// has none: it calls wpar.Run directly over an arena built in
	// set-up.
	pool *runq.Options
	// ref is how ipc_err_pct is measured: refNone (the workload is a
	// full-detail reference itself), refFullDetail (the primary job in
	// full detail over the same trace and budget) or refChain (the
	// chain-serial sampled run of the same job).
	ref refKind
}

type refKind int

const (
	refNone refKind = iota
	refFullDetail
	refChain
)

// primaryJob names the job whose simulated statistics the per-layer
// metrics report: the default UCP configuration, present in every
// workload.
const primaryJob = "UCP"

// sweepThresholds is the sweep's UCP StopThreshold grid.
var sweepThresholds = []int{125, 250, 375, 500, 750, 1000, 2000, 4000}

// windowParSampling is the window-parallel gate's geometry at half the
// period: the conservative posture, 20 windows (a 100K period over 2M
// measured instructions) and a 20K detailed warm per window.
func windowParSampling() sim.SamplingConfig {
	sc := sim.ConservativeSampling()
	sc.PeriodInsts = 100_000
	sc.WarmInsts = 20_000
	return sc
}

// workloads stress different layers, so a change to one layer has a
// workload that exercises it and one that bypasses it (README.md).
var workloads = []*workload{
	{
		// Full detail with UCP on a large footprint: the UCP walker,
		// frontend and backend carry the run; no skip or checkpoint work.
		name:    "full-compare",
		profile: "srv203",
		workers: 2,
		jobs: func(p trace.Profile) []runq.Job {
			return []runq.Job{
				{Config: sim.Baseline(), Profile: p, Warmup: 500_000, Measure: 750_000},
				{Config: sim.WithUCP(core.DefaultConfig()), Profile: p, Warmup: 500_000, Measure: 750_000},
			}
		},
		pool: &runq.Options{Workers: 2},
		ref:  refNone,
	},
	{
		// Skip-zone predictor training and cache warming dominate; the
		// walker runs only inside the measured windows.
		name:    "sampled",
		profile: "srv203",
		workers: 1,
		jobs: func(p trace.Profile) []runq.Job {
			c := sim.WithUCP(core.DefaultConfig())
			c.Sampling = sim.ConservativeSampling()
			return []runq.Job{{Config: c, Profile: p, Warmup: 400_000, Measure: 4_000_000}}
		},
		pool: &runq.Options{Workers: 1},
		ref:  refFullDetail,
	},
	{
		// The only batch where runq scheduling, the trace arena and
		// checkpoint capture and restore do real work.
		name:    "sweep",
		profile: "int01",
		workers: 2,
		jobs: func(p trace.Profile) []runq.Job {
			sc := sim.SamplingConfig{Enabled: true, PeriodInsts: 250_000, DetailedInsts: 5_000, WarmInsts: 5_000, FFWarmInsts: 25_000}
			jobs := make([]runq.Job, len(sweepThresholds))
			for i, t := range sweepThresholds {
				c := harness.UCPThreshold(t, false)
				c.Sampling = sc
				jobs[i] = runq.Job{Config: c, Profile: p, Warmup: 1_500_000, Measure: 1_000_000}
			}
			return jobs
		},
		pool: &runq.Options{Workers: 2, UseArena: true, Checkpoints: true},
		ref:  refFullDetail,
	},
	{
		// Drives wpar and boundary warming, whose work grows as O(W²).
		name:    "window-parallel",
		profile: "crypto01",
		workers: 2,
		jobs: func(p trace.Profile) []runq.Job {
			c := sim.WithUCP(core.DefaultConfig())
			c.Sampling = windowParSampling()
			return []runq.Job{{Config: c, Profile: p, Warmup: 400_000, Measure: 2_000_000, Segments: 2}}
		},
		ref: refChain,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// budget is the trace length a job's stream is cut at, as runq cuts it.
func budget(j runq.Job) int { return int(j.Warmup+j.Measure) + 200_000 }

// simInsts is the simulated instruction count a job covers.
func simInsts(j runq.Job) uint64 { return j.Warmup + j.Measure }

// outcome is one job's result in one repetition.
type outcome struct {
	job string
	res sim.Result
	err error
}

// instance is one set-up of a workload: everything the timed region
// needs before its first simulated instruction. An instance runs once.
type instance struct {
	w    *workload
	prof trace.Profile
	jobs []runq.Job

	pool  *runq.Pool // pool workloads
	prog  *trace.Program
	arena *trace.Arena // window-parallel: built in set-up

	// Traced runs only.
	traces     map[string]*jobTrace
	store      *ckpt.Store // the sweep's checkpoint store
	arenaOnce  sync.Once   // the sweep's arena, built on first use as runq does
	sweepArena *trace.Arena
}

// setup builds an instance. Untraced pool workloads run on the real
// runq path; traced ones run on a pool whose RunJob seam mirrors runq's
// job body with traced sources.
func (w *workload) setup(seed uint64, traced bool) (*instance, error) {
	prof, err := profileFor(w.profile, seed)
	if err != nil {
		return nil, err
	}
	in := &instance{w: w, prof: prof, jobs: w.jobs(prof)}
	if w.pool != nil && !traced {
		in.pool = runq.New(*w.pool)
		in.prog, err = in.pool.Program(prof)
		return in, err
	}
	if in.prog, err = trace.BuildProgram(prof); err != nil {
		return nil, err
	}
	if w.pool == nil {
		n := budget(in.jobs[0])
		in.arena = trace.ArenaFromSource(trace.NewLimit(trace.NewWalker(in.prog), n), n)
	}
	if traced {
		in.traces = make(map[string]*jobTrace, len(in.jobs))
		for _, j := range in.jobs {
			in.traces[j.Config.Name] = &jobTrace{}
		}
		if w.pool != nil {
			if w.pool.Checkpoints {
				in.store = ckpt.NewStore("")
			}
			in.pool = runq.New(runq.Options{Workers: w.pool.Workers, RunJob: in.simulateTraced})
		}
	}
	return in, nil
}

// run executes the batch once and returns one outcome per job, in job
// order.
func (in *instance) run() []outcome {
	if in.pool == nil {
		return []outcome{in.runWindowParallel()}
	}
	var results []runq.JobResult
	if in.traces == nil {
		results = in.pool.RunAll(in.jobs)
	} else {
		results = in.runOneEach()
	}
	outs := make([]outcome, len(results))
	for i, jr := range results {
		outs[i] = outcome{job: jr.Job.Config.Name, res: jr.Result, err: jr.Err}
	}
	return outs
}

// runOneEach submits the batch through RunOne from the workload's
// worker count of goroutines, each taking the next job in order as
// RunAll's workers do, so every job gets its own progress hook.
func (in *instance) runOneEach() []runq.JobResult {
	results := make([]runq.JobResult, len(in.jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < in.w.workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				jt := in.traces[in.jobs[i].Config.Name]
				jt.start = nowNs()
				results[i] = in.pool.RunOne(in.jobs[i], jt.hook)
				jt.end = nowNs()
			}
		}()
	}
	for i := range in.jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	return results
}

// simulateTraced is runq's serial job body with every stream wrapped:
// the same budgets, the same stream (a walker, or the shared arena
// when the pool would use one) and the same checkpoint reuse.
func (in *instance) simulateTraced(job runq.Job, hook sim.ProgressFunc) (sim.Result, error) {
	cfg := job.Config
	cfg.WarmupInsts, cfg.MeasureInsts = job.Warmup, job.Measure
	var src trace.Source
	if in.w.pool.UseArena {
		in.arenaOnce.Do(func() {
			n := budget(job)
			in.sweepArena = trace.ArenaFromSource(trace.NewLimit(trace.NewWalker(in.prog), n), n)
		})
		src = in.sweepArena.Cursor()
	} else {
		src = trace.NewLimit(trace.NewWalker(in.prog), budget(job))
	}
	var wc *sim.WarmCheckpoints
	if in.store != nil {
		wc = &sim.WarmCheckpoints{Store: in.store, TraceID: fmt.Sprintf("profile:%s:%d", in.prof.Name, in.prof.Seed)}
	}
	return sim.RunHooked(cfg, in.traces[cfg.Name].source(src), in.prog, job.Profile.Name, wc, hook)
}

// runWindowParallel runs the single window-parallel job over cursors
// of the pre-built arena, wrapped when traced.
func (in *instance) runWindowParallel() outcome {
	job := in.jobs[0]
	cfg := job.Config
	cfg.WarmupInsts, cfg.MeasureInsts = job.Warmup, job.Measure
	newSource := func() trace.Source { return in.arena.Cursor() }
	opts := wpar.Options{Workers: in.w.workers}
	jt := in.traces[cfg.Name]
	if jt != nil {
		newSource = func() trace.Source { return jt.source(in.arena.Cursor()) }
		opts.Hook = jt.hook
		jt.start = nowNs()
	}
	res, err := wpar.Run(cfg, newSource, in.prog, job.Profile.Name, opts)
	if jt != nil {
		jt.end = nowNs()
	}
	return outcome{job: cfg.Name, res: res, err: err}
}

// checkpointStats reports checkpoint captures and restores of the run.
func (in *instance) checkpointStats() (captured, restored int) {
	if in.store != nil {
		return in.store.Len(), in.store.Hits()
	}
	if in.pool != nil {
		return in.pool.CheckpointStats()
	}
	return 0, 0
}
