// Package harness runs the paper's experiments: for every table and
// figure in the evaluation (§III, §VI) it builds the relevant machine
// configurations, sweeps them over the synthetic CVP-1-substitute trace
// set, and prints the same rows/series the paper reports. Runs execute
// on an internal/runq worker pool and are memoized by content digest —
// in-process always, on disk when Options.CacheDir is set — so figures
// share runs and repeated invocations replay instead of recompute.
package harness

import (
	"fmt"
	"io"
	"math"
	"sort"

	"ucp/internal/runq"
	"ucp/internal/sim"
	"ucp/internal/trace"
)

// Options controls an experiment sweep.
type Options struct {
	// Profiles is the trace set (DefaultProfiles when empty).
	Profiles []trace.Profile
	// Warmup/Measure override the per-run instruction counts.
	Warmup, Measure uint64
	// Sampling, when Enabled, runs every sweep in sampled mode with this
	// geometry (sim.ConservativeSampling is the safe choice). Sampled
	// and full-detail results hash to different runq cache keys, so the
	// two kinds of sweep never contaminate each other's cache entries.
	Sampling sim.SamplingConfig
	// Segments > 1 runs every sweep job time-parallel through the
	// internal/wpar executor. Full-detail sweeps split the measured
	// region into that many boundary-warmed trace segments simulated
	// concurrently and reduced deterministically, each boundary warmed
	// by sim.DefaultBoundaryWarm. Sampled sweeps (Sampling.Enabled)
	// instead shard per measured window — the window plan and boundary
	// warm come from the sampling geometry; the combination is
	// validated by sim.Config.ValidateSegments. Like Sampling,
	// parallel results hash to their own runq cache keys.
	Segments int
	// Out receives the rendered tables (must be non-nil).
	Out io.Writer
	// Verbose prints one line per completed run.
	Verbose bool
	// Jobs bounds concurrent simulations (GOMAXPROCS when 0). Reports
	// are byte-identical at every worker count: results always come
	// back in submission order.
	Jobs int
	// CacheDir enables runq's content-addressed on-disk result cache.
	CacheDir string
	// UseArena decodes each workload once per pool into a shared
	// trace.Arena instead of walking the generator per job (runq
	// Options.UseArena); results are byte-identical either way.
	UseArena bool
	// Checkpoints enables warm-checkpoint reuse across sampled jobs
	// sharing a warm key (runq Options.Checkpoints); CkptDir persists
	// the checkpoints on disk and implies Checkpoints.
	Checkpoints bool
	CkptDir     string
	// Clock supplies elapsed time for progress/ETA lines (nil: none).
	// Wire a real clock only from cmd/ — internal packages must stay
	// wall-clock-free (ucplint wallclock rule).
	Clock runq.Clock
	// Progress receives scheduler progress lines (nil: silent). Must
	// not alias Out: progress output is completion-ordered and timed,
	// so it would break report determinism.
	Progress io.Writer
	// Exec, when non-nil, executes sweeps instead of the local pool —
	// the sweepd client implements it, which is how every figure runs
	// against a remote server behind -server with byte-identical
	// reports. Figures that walk programs locally (predictor profiling)
	// still use the local pool, so the trace set is built either way.
	Exec runq.Runner
}

// DefaultOptions returns a laptop-scale sweep: the full trace set at
// 800K warmup + 700K measured instructions.
func DefaultOptions(out io.Writer) Options {
	return Options{
		Profiles: trace.DefaultProfiles(),
		Warmup:   800_000,
		Measure:  700_000,
		Out:      out,
	}
}

// Runner executes simulation runs on a runq pool and renders figures.
type Runner struct {
	opts Options
	pool *runq.Pool
	exec runq.Runner
}

// NewRunner builds a runner; programs are constructed lazily.
func NewRunner(opts Options) *Runner {
	if len(opts.Profiles) == 0 {
		opts.Profiles = trace.DefaultProfiles()
	}
	r := &Runner{
		opts: opts,
		pool: runq.New(runq.Options{
			Workers:     opts.Jobs,
			CacheDir:    opts.CacheDir,
			Clock:       opts.Clock,
			Progress:    opts.Progress,
			UseArena:    opts.UseArena,
			Checkpoints: opts.Checkpoints,
			CkptDir:     opts.CkptDir,
		}),
	}
	r.exec = r.pool
	if opts.Exec != nil {
		r.exec = opts.Exec
	}
	return r
}

// Out returns the report writer.
func (r *Runner) Out() io.Writer { return r.opts.Out }

// Profiles returns the trace set.
func (r *Runner) Profiles() []trace.Profile { return r.opts.Profiles }

// SchedulerStats exposes the pool's run/cache counters.
func (r *Runner) SchedulerStats() runq.Stats { return r.pool.Stats() }

// program returns the built program for p (shared with the pool's
// simulation workers; predictor-profiling figures walk it directly).
func (r *Runner) program(p trace.Profile) (*trace.Program, error) {
	return r.pool.Program(p)
}

// Run executes cfg over one named trace.
func (r *Runner) Run(cfg sim.Config, prof trace.Profile) (sim.Result, error) {
	rs, err := r.sweep(cfg, []trace.Profile{prof})
	if err != nil {
		return sim.Result{}, err
	}
	return rs[0], nil
}

// sweep schedules cfg over profs on the pool and collects results in
// trace order. Any failed run aborts the sweep with its error — the
// figure asking for it fails, the process (and the other figures) keep
// going.
func (r *Runner) sweep(cfg sim.Config, profs []trace.Profile) ([]sim.Result, error) {
	if r.opts.Sampling.Enabled {
		cfg.Sampling = r.opts.Sampling
	}
	jobs := make([]runq.Job, len(profs))
	for i, p := range profs {
		jobs[i] = runq.Job{
			Config:   cfg,
			Profile:  p,
			Warmup:   r.opts.Warmup,
			Measure:  r.opts.Measure,
			Segments: r.opts.Segments,
		}
	}
	out := make([]sim.Result, len(jobs))
	for i, jr := range r.exec.RunAll(jobs) {
		if jr.Err != nil {
			return nil, fmt.Errorf("harness: %w", jr.Err)
		}
		out[i] = jr.Result
		if r.opts.Verbose && jr.Source != runq.SourceMemo {
			fmt.Fprintf(r.opts.Out, "# run %-24s %-9s IPC=%.4f HR=%.3f\n",
				cfg.Name, profs[i].Name, jr.Result.IPC, jr.Result.UopHitRate)
		}
	}
	return out, nil
}

// Sweep runs cfg over the whole trace set.
func (r *Runner) Sweep(cfg sim.Config) ([]sim.Result, error) {
	return r.sweep(cfg, r.opts.Profiles)
}

// heavyProfiles is the reduced subset used by the configuration-heavy
// sweeps (Fig. 5's 24 combinations, Fig. 15's threshold sweep, and
// Fig. 16's MRC points) to keep single-machine runtimes reasonable. It
// preserves the category mix of the full set.
func (r *Runner) heavyProfiles() []trace.Profile {
	if len(r.opts.Profiles) <= 10 {
		return r.opts.Profiles
	}
	keep := map[string]bool{
		"crypto02": true, "fp02": true, "int02": true, "int04": true,
		"srv201": true, "srv203": true, "srv205": true, "srv206": true,
		"srv208": true, "srv209": true,
	}
	var out []trace.Profile
	for _, p := range r.opts.Profiles {
		if keep[p.Name] {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return r.opts.Profiles
	}
	return out
}

// HeavySweep runs cfg over the reduced subset (cache-compatible with
// full sweeps: results are keyed per trace).
func (r *Runner) HeavySweep(cfg sim.Config) ([]sim.Result, error) {
	return r.sweep(cfg, r.heavyProfiles())
}

// Geomean returns the geometric mean of per-trace speedups of exp over
// base (aligned by index), as a percentage improvement. Empty or
// mismatched slices yield 0.
func Geomean(base, exp []sim.Result) float64 {
	if len(base) != len(exp) || len(base) == 0 {
		return 0
	}
	sum := 0.0
	for i := range base {
		sum += math.Log(exp[i].IPC / base[i].IPC)
	}
	return (math.Exp(sum/float64(len(base))) - 1) * 100
}

// MinMax returns the minimum and maximum per-trace improvement (%).
// Empty or mismatched slices yield (0, 0).
func MinMax(base, exp []sim.Result) (min, max float64) {
	if len(base) != len(exp) || len(base) == 0 {
		return 0, 0
	}
	min, max = math.Inf(1), math.Inf(-1)
	for i := range base {
		v := (exp[i].IPC/base[i].IPC - 1) * 100
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// Amean averages f over results.
func Amean(rs []sim.Result, f func(sim.Result) float64) float64 {
	if len(rs) == 0 {
		return 0
	}
	s := 0.0
	for _, r := range rs {
		s += f(r)
	}
	return s / float64(len(rs))
}

// improvements returns per-trace improvement (%) of exp over base,
// sorted ascending (the paper's "sorted traces" x-axis).
func improvements(base, exp []sim.Result) []traceValue {
	out := make([]traceValue, len(base))
	for i := range base {
		out[i] = traceValue{
			trace: base[i].Trace,
			value: (exp[i].IPC/base[i].IPC - 1) * 100,
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].value < out[j].value })
	return out
}

type traceValue struct {
	trace string
	value float64
}

// section prints a figure heading.
func (r *Runner) section(title, caption string) {
	fmt.Fprintf(r.opts.Out, "\n## %s\n\n%s\n\n", title, caption)
}

func (r *Runner) tableHeader(cols ...string) {
	w := r.opts.Out
	for i, c := range cols {
		if i > 0 {
			fmt.Fprint(w, " | ")
		}
		fmt.Fprint(w, c)
	}
	fmt.Fprintln(w)
	for i := range cols {
		if i > 0 {
			fmt.Fprint(w, " | ")
		}
		fmt.Fprint(w, "---")
	}
	fmt.Fprintln(w)
}
