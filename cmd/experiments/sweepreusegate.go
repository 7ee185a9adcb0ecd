package main

import (
	"fmt"
	"io"

	"ucp/internal/harness"
	"ucp/internal/runq"
	"ucp/internal/sim"
	"ucp/internal/trace"
)

// The sweep-reuse gate: one UCP stop-threshold ablation — the sweep
// shape of Fig. 15, whose configurations differ only in measurement
// phase parameters and therefore share a single functional-warm key —
// run twice over the same trace. The cold pass is a plain pool (per-job
// generator walk, no checkpoints), the warm pass a fresh pool with the
// shared decoded arena and warm-checkpoint reuse enabled, so the sweep
// pays the functional fast-forward once instead of once per config.
// Both passes run in this one process, single-worker, back to back, so
// the wall-clock ratio compares serial work against serial work.
//
// Gated bounds, also documented in EXPERIMENTS.md:
//   - outcome neutrality: every config's determinism digest must be
//     byte-identical across the two passes;
//   - the warm pass must actually reuse: exactly one checkpoint
//     captured, every other job restored from it;
//   - wall-clock speedup (cold / warm) ≥ 3×.
const (
	sweepReuseTrace   = "crypto01"
	sweepReuseWarmup  = 6_000_000
	sweepReuseMeasure = 250_000
	sweepReuseMinSpd  = 3.0
)

// sweepReuseThresholds is the ablation axis. StopThreshold steers only
// the detailed-mode prefetch walk, so all points share one warm key.
var sweepReuseThresholds = []int{125, 250, 375, 500, 750, 1000, 1500, 2000, 3000, 4000}

// sweepReuseJobs builds the ablation sweep.
func sweepReuseJobs() ([]runq.Job, error) {
	cfgs := make([]sim.Config, len(sweepReuseThresholds))
	for i, t := range sweepReuseThresholds {
		cfgs[i] = harness.UCPThreshold(t, false)
	}
	return ablationJobs(sweepReuseTrace, sweepReuseWarmup, sweepReuseMeasure, cfgs)
}

// ablationJobs runs cfgs over the named trace under the sampling
// geometry the sweep-shaped gates share: 250K period, 5K windows.
func ablationJobs(name string, warmup, measure uint64, cfgs []sim.Config) ([]runq.Job, error) {
	prof, ok := trace.ProfileByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown profile %q", name)
	}
	jobs := make([]runq.Job, len(cfgs))
	for i, cfg := range cfgs {
		cfg.Sampling = sim.SamplingConfig{
			Enabled:       true,
			PeriodInsts:   250_000,
			DetailedInsts: 5_000,
			WarmInsts:     5_000,
			FFWarmInsts:   25_000,
		}
		jobs[i] = runq.Job{Config: cfg, Profile: prof, Warmup: warmup, Measure: measure}
	}
	return jobs, nil
}

// sweepReuseBench is the gate's BENCH_sweepreuse.json payload.
type sweepReuseBench struct {
	Configs          int     `json:"configs"`
	Warmup           uint64  `json:"warmup_insts"`
	Measure          uint64  `json:"measure_insts"`
	MinSpeedupBound  float64 `json:"min_speedup_bound"`
	ColdMS           int64   `json:"cold_ms"`
	WarmMS           int64   `json:"warm_ms"`
	Speedup          float64 `json:"speedup"`
	Captured         int     `json:"checkpoints_captured"`
	Restored         int     `json:"checkpoints_restored"`
	DigestsIdentical bool    `json:"digests_identical"`
}

// runSweepReuseGate executes the paired cold/warm sweep and checks its
// bounds.
func runSweepReuseGate(w io.Writer) (any, []string, error) {
	jobs, err := sweepReuseJobs()
	if err != nil {
		return nil, nil, err
	}

	coldRes, coldDur, err := timedRunAll(runq.New(runq.Options{Workers: 1}), jobs)
	if err != nil {
		return nil, nil, fmt.Errorf("cold pass: %v", err)
	}
	warmPool := runq.New(runq.Options{Workers: 1, UseArena: true, Checkpoints: true})
	warmRes, warmDur, err := timedRunAll(warmPool, jobs)
	if err != nil {
		return nil, nil, fmt.Errorf("warm pass: %v", err)
	}

	var v violations
	same := v.matchDigests(jobs, coldRes, warmRes, "warm digest diverges from cold digest")
	bench := sweepReuseBench{
		Configs: len(jobs), Warmup: sweepReuseWarmup, Measure: sweepReuseMeasure,
		MinSpeedupBound: sweepReuseMinSpd,
		ColdMS:          coldDur.Milliseconds(), WarmMS: warmDur.Milliseconds(),
		DigestsIdentical: same == len(jobs),
	}
	bench.Captured, bench.Restored = warmPool.CheckpointStats()
	v.check(bench.Captured == 1 && bench.Restored == len(jobs)-1,
		"warm pass captured %d checkpoint(s) and restored %d job(s), want 1 and %d",
		bench.Captured, bench.Restored, len(jobs)-1)
	if warmDur > 0 {
		bench.Speedup = float64(coldDur) / float64(warmDur)
	}
	v.check(bench.Speedup >= sweepReuseMinSpd, "speedup %.1fx below the %.0fx bound",
		bench.Speedup, sweepReuseMinSpd)
	fmt.Fprintf(w, "  cold %dms (per-job fast-forward)  warm %dms (1 capture + %d restores, shared arena) — %.1fx speedup (bound: ≥%.0fx)\n",
		bench.ColdMS, bench.WarmMS, bench.Restored, bench.Speedup, sweepReuseMinSpd)
	fmt.Fprintf(w, "  digests: %d/%d byte-identical cold vs warm\n", same, len(jobs))
	return bench, v, nil
}
