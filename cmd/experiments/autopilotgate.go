package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"ucp/internal/autopilot"
	"ucp/internal/harness"
	"ucp/internal/runq"
	"ucp/internal/sim"
)

// The autopilot gate has two halves, both documented in EXPERIMENTS.md.
//
// Part A — adaptive-sampling soundness. One adaptive run (FastSampling
// geometry plus a CI target) on crypto01 against the full-detail
// reference and the fixed-geometry sampled run:
//   - the adaptive run must report its target met, using strictly fewer
//     windows than the fixed geometry's budget;
//   - the full-detail IPC must lie inside the adaptive run's own
//     claimed 95% interval (the CI is honest, not just narrow);
//   - two adaptive passes must produce byte-identical digests.
//
// Part B — confidence-pruned search efficiency. A seeded 10-config
// ablation on srv203 searched with autopilot.Search against the
// autopilot.Exhaustive reference (every config straight at the final
// target):
//   - both strategies must name the same winner;
//   - the search must spend at least autopilotMinSpendRatio× fewer
//     simulated instructions (measured-region stream advance) than
//     exhaustive;
//   - a second Search over a fresh pool must reproduce the winner, the
//     round count, the spend, and the winning digest byte-for-byte.
//
// The gate also regenerates the autopilot Pareto section of
// EXPERIMENTS_RESULTS.md between its markers.
const (
	// Part A: crypto01 is the trace the FastSampling geometry is
	// specified for, and the only one with a full-detail reference cheap
	// enough to recompute per gate run.
	adaptiveGateTrace   = "crypto01"
	adaptiveGateWarmup  = 400_000
	adaptiveGateMeasure = 25_000_000
	adaptiveGateTarget  = 0.02 // relative 95% half-width target

	// Part B: int01 pairs clear grid separation (the µ-op cache matters:
	// no-uop 2.61 → ideal 3.88 IPC) with low per-window variance
	// (~8% relative sd at this geometry), so the coarse probes stop
	// after a handful of windows while the final target stays meetable
	// inside the 80-window budget — both are what give pruning its
	// leverage. The server traces are the counterexample: srv203's ~27%
	// per-window sd makes even a ±4% target cost the whole budget, and a
	// search degenerates to exhaustive plus overhead.
	autopilotGateTrace     = "int01"
	autopilotGateWarmup    = 400_000
	autopilotGateMeasure   = 20_000_000
	autopilotGateCoarse    = 0.05
	autopilotGateFinal     = 0.02
	autopilotGateMinWin    = 0 // sim defaults
	autopilotMinSpendRatio = 2.0
)

// The gate splices its Pareto table into autopilotResultsPath between
// these markers.
const (
	autopilotResultsPath = "EXPERIMENTS_RESULTS.md"
	autopilotBeginMarker = "<!-- BEGIN GENERATED: autopilot-pareto -->"
	autopilotEndMarker   = "<!-- END GENERATED: autopilot-pareto -->"
)

// autopilotConfigs is the seeded ablation: the paper's headline reference
// points (no µ-op cache, baseline, ideal µ-op cache) plus the UCP
// threshold/estimator axes of Figs. 12 and 15. The ideal µ-op cache is
// the expected winner by a wide margin, so the other nine candidates
// are pruning fodder — which is the point: the gate measures how much
// of the exhaustive spend the search avoids without changing the
// answer.
func autopilotConfigs() []sim.Config {
	return []sim.Config{
		harness.NoUop(),
		harness.BaselineCfg(),
		harness.IdealUop(),
		harness.UCPThreshold(125, false),
		harness.UCPThreshold(250, false),
		harness.UCP(),
		harness.UCPThreshold(1000, false),
		harness.UCPThreshold(2000, false),
		harness.UCPNoInd(),
		harness.UCPTageConf(),
	}
}

// autopilotGrid builds the seeded ablation's jobs and the baseline job.
func autopilotGrid() ([]runq.Job, *runq.Job, error) {
	jobs, err := ablationJobs(autopilotGateTrace, autopilotGateWarmup, autopilotGateMeasure,
		append(autopilotConfigs(), harness.BaselineCfg()))
	if err != nil {
		return nil, nil, err
	}
	n := len(jobs) - 1
	return jobs[:n:n], &jobs[n], nil
}

// adaptiveGateResult is Part A's measurements, the record's adaptive
// object.
type adaptiveGateResult struct {
	Trace           string  `json:"trace"`
	TargetCI        float64 `json:"target_ci"`
	FullIPC         float64 `json:"full_ipc"`
	IPCMean         float64 `json:"adaptive_ipc_mean"`
	IPCCI           float64 `json:"adaptive_ipc_ci95"`
	RelHalf         float64 `json:"achieved_rel_half"`
	FixedWindows    int     `json:"fixed_windows"`
	AdaptiveWindows int     `json:"adaptive_windows"`
	WindowBudget    int     `json:"window_budget"`
	TargetMet       bool    `json:"target_met"`
}

// searchGateResult is Part B's measurements, the record's autopilot
// object.
type searchGateResult struct {
	Trace              string  `json:"trace"`
	Configs            int     `json:"configs"`
	CoarseTargetCI     float64 `json:"coarse_target_ci"`
	FinalTargetCI      float64 `json:"final_target_ci"`
	Winner             string  `json:"winner"`
	Rounds             int     `json:"rounds"`
	Pruned             int     `json:"pruned"`
	SearchSpent        uint64  `json:"search_spent_insts"`
	ExhaustiveSpent    uint64  `json:"exhaustive_spent_insts"`
	SpendRatio         float64 `json:"spend_ratio"`
	MinSpendRatioBound float64 `json:"min_spend_ratio_bound"`
}

// autopilotBench is the gate's BENCH_autopilot.json payload.
type autopilotBench struct {
	Adaptive  adaptiveGateResult `json:"adaptive"`
	Autopilot searchGateResult   `json:"autopilot"`
}

// runAdaptiveSoundness executes Part A and records its violations in v.
func runAdaptiveSoundness(w io.Writer, v *violations) (adaptiveGateResult, error) {
	out := adaptiveGateResult{Trace: adaptiveGateTrace, TargetCI: adaptiveGateTarget}
	run, err := programRun(adaptiveGateTrace, adaptiveGateWarmup, adaptiveGateMeasure)
	if err != nil {
		return out, err
	}
	cfg := harness.BaselineCfg()
	fixedCfg := cfg
	fixedCfg.Sampling = sim.FastSampling()
	adCfg := fixedCfg
	adCfg.Sampling.TargetCI = adaptiveGateTarget
	var rs [4]sim.Result
	for i, r := range []struct {
		name string
		cfg  sim.Config
	}{{"full-detail reference", cfg}, {"fixed-geometry run", fixedCfg}, {"adaptive run", adCfg}, {"adaptive repeat", adCfg}} {
		if rs[i], _, err = run(r.cfg); err != nil {
			return out, fmt.Errorf("%s: %v", r.name, err)
		}
	}
	full, fixed, adaptive, again := rs[0], rs[1], rs[2], rs[3]
	v.check(adaptive.DeterminismDigest() == again.DeterminismDigest(), "adaptive: two passes digest differently")

	s := adaptive.Sampled
	out.FullIPC, out.IPCMean, out.IPCCI = full.IPC, s.IPCMean, s.IPCCI95
	out.FixedWindows, out.AdaptiveWindows = fixed.Sampled.Windows, s.Windows
	out.WindowBudget, out.TargetMet = s.WindowBudget, s.TargetMet
	if s.IPCMean > 0 {
		out.RelHalf = s.IPCCI95 / s.IPCMean
	}
	v.check(s.TargetMet, "adaptive: target ±%.1f%% unmet within the %d-window budget",
		adaptiveGateTarget*100, s.WindowBudget)
	v.check(s.Windows < fixed.Sampled.Windows, "adaptive: %d windows, no fewer than the fixed geometry's %d",
		s.Windows, fixed.Sampled.Windows)
	v.check(math.Abs(s.IPCMean-full.IPC) <= s.IPCCI95,
		"adaptive: full-detail IPC %.4f outside the claimed interval %.4f ± %.4f", full.IPC, s.IPCMean, s.IPCCI95)
	fmt.Fprintf(w, "  adaptive: %s full IPC %.4f; fixed %d windows; adaptive %d/%d windows, IPC %.4f ±%.4f (±%.2f%%, target ±%.0f%%, met=%v)\n",
		adaptiveGateTrace, full.IPC, fixed.Sampled.Windows, s.Windows, s.WindowBudget,
		s.IPCMean, s.IPCCI95, out.RelHalf*100, adaptiveGateTarget*100, s.TargetMet)
	return out, nil
}

// newAutopilotPool builds a fresh serial arena+checkpoint pool — fresh
// so neither search pass nor the exhaustive reference reuses another
// pass's memo (spend is read from results, but executed-once semantics
// keep the determinism comparison honest).
func newAutopilotPool() *runq.Pool {
	return runq.New(runq.Options{Workers: 1, UseArena: true, Checkpoints: true})
}

func autopilotOpts(exec runq.Runner, grid []runq.Job, baseline *runq.Job) autopilot.Options {
	return autopilot.Options{
		Exec:           exec,
		Grid:           grid,
		Baseline:       baseline,
		CoarseTargetCI: autopilotGateCoarse,
		TargetCI:       autopilotGateFinal,
		MinWindows:     autopilotGateMinWin,
	}
}

// runAutopilotSweep is the -autopilot report mode: one confidence-
// pruned search over the seeded ablation grid, rendered as the Pareto
// table. It honors the harness options the figure sweeps use (-jobs,
// -cache-dir, -server, progress) and lets -adaptive tighten the final
// target.
func runAutopilotSweep(w io.Writer, hopts harness.Options, finalTarget float64) error {
	grid, baseline, err := autopilotGrid()
	if err != nil {
		return fmt.Errorf("autopilot: %v", err)
	}
	exec := hopts.Exec
	if exec == nil {
		exec = runq.New(runq.Options{
			Workers:  hopts.Jobs,
			CacheDir: hopts.CacheDir,
			UseArena: true, Checkpoints: true,
			Clock: hopts.Clock, Progress: hopts.Progress,
		})
	}
	opts := autopilotOpts(exec, grid, baseline)
	if finalTarget > 0 {
		opts.TargetCI = finalTarget
		if opts.CoarseTargetCI < finalTarget {
			opts.CoarseTargetCI = finalTarget
		}
	}
	opts.Log = hopts.Progress
	rep, err := autopilot.Search(opts)
	if err != nil {
		return fmt.Errorf("autopilot: %v", err)
	}
	fmt.Fprintf(w, "## Autopilot — confidence-pruned ablation search\n\n")
	fmt.Fprintf(w, "Trace %s, %d configs, %d warmup + %d measured insts per probe; targets ±%.1f%% → ±%.1f%%.\n\n",
		autopilotGateTrace, len(grid), autopilotGateWarmup, autopilotGateMeasure,
		opts.CoarseTargetCI*100, opts.TargetCI*100)
	rep.WriteMarkdown(w)
	return nil
}

// runAutopilotGate executes both halves, regenerates the
// EXPERIMENTS_RESULTS.md Pareto section, and checks the bounds.
func runAutopilotGate(w io.Writer) (any, []string, error) {
	var v violations
	ad, err := runAdaptiveSoundness(w, &v)
	if err != nil {
		return nil, nil, err
	}

	grid, baseline, err := autopilotGrid()
	if err != nil {
		return nil, nil, err
	}
	search, err := autopilot.Search(autopilotOpts(newAutopilotPool(), grid, baseline))
	if err != nil {
		return nil, nil, fmt.Errorf("search: %v", err)
	}
	exhaustive, err := autopilot.Exhaustive(autopilotOpts(newAutopilotPool(), grid, baseline))
	if err != nil {
		return nil, nil, fmt.Errorf("exhaustive: %v", err)
	}
	searchAgain, err := autopilot.Search(autopilotOpts(newAutopilotPool(), grid, baseline))
	if err != nil {
		return nil, nil, fmt.Errorf("search repeat: %v", err)
	}

	sr := searchGateResult{
		Trace: autopilotGateTrace, Configs: len(search.Candidates),
		CoarseTargetCI: autopilotGateCoarse, FinalTargetCI: autopilotGateFinal,
		Winner: search.Candidates[search.WinnerIndex].Job.Config.Name,
		Rounds: search.Rounds, SearchSpent: search.TotalSpentInsts,
		ExhaustiveSpent: exhaustive.TotalSpentInsts, MinSpendRatioBound: autopilotMinSpendRatio,
	}
	exWinner := exhaustive.Candidates[exhaustive.WinnerIndex].Job.Config.Name
	v.check(search.WinnerIndex == exhaustive.WinnerIndex,
		"search winner %s differs from exhaustive winner %s", sr.Winner, exWinner)
	if search.TotalSpentInsts > 0 {
		sr.SpendRatio = float64(exhaustive.TotalSpentInsts) / float64(search.TotalSpentInsts)
	}
	v.check(sr.SpendRatio >= autopilotMinSpendRatio,
		"spend ratio %.2fx below the %.1fx bound (search %d vs exhaustive %d insts)",
		sr.SpendRatio, autopilotMinSpendRatio, search.TotalSpentInsts, exhaustive.TotalSpentInsts)
	switch {
	case searchAgain.WinnerIndex != search.WinnerIndex:
		v = append(v, "second search names a different winner")
	case searchAgain.Rounds != search.Rounds || searchAgain.TotalSpentInsts != search.TotalSpentInsts:
		v = append(v, fmt.Sprintf("second search spent differently (%d rounds / %d insts vs %d / %d)",
			searchAgain.Rounds, searchAgain.TotalSpentInsts, search.Rounds, search.TotalSpentInsts))
	case searchAgain.Candidates[searchAgain.WinnerIndex].Result.DeterminismDigest() !=
		search.Candidates[search.WinnerIndex].Result.DeterminismDigest():
		v = append(v, "second search's winning digest diverges")
	}
	for i := range search.Candidates {
		if search.Candidates[i].PrunedRound > 0 {
			sr.Pruned++
		}
	}
	fmt.Fprintf(w, "  search: winner %s after %d rounds, %d/%d pruned, %.1f Minsts spent\n",
		sr.Winner, search.Rounds, sr.Pruned, len(search.Candidates), float64(search.TotalSpentInsts)/1e6)
	fmt.Fprintf(w, "  exhaustive: winner %s, %.1f Minsts spent — search spends %.2fx less (bound: ≥%.1fx)\n",
		exWinner, float64(exhaustive.TotalSpentInsts)/1e6, sr.SpendRatio, autopilotMinSpendRatio)

	var table strings.Builder
	search.WriteMarkdown(&table)
	if err := spliceAutopilotResults(autopilotResultsPath, table.String()); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(w, "  Pareto table regenerated in %s\n", autopilotResultsPath)
	return autopilotBench{Adaptive: ad, Autopilot: sr}, v, nil
}

// spliceAutopilotResults replaces the generated Pareto section of
// EXPERIMENTS_RESULTS.md in place (appending the section, markers
// included, when the file has none yet).
func spliceAutopilotResults(path, table string) error {
	section := autopilotBeginMarker + "\n\n" +
		fmt.Sprintf("Confidence-pruned ablation on %s (%d warmup + %d measured insts per probe; targets ±%.0f%% → ±%.0f%%).\n\n",
			autopilotGateTrace, autopilotGateWarmup, autopilotGateMeasure,
			autopilotGateCoarse*100, autopilotGateFinal*100) +
		table + "\n" + autopilotEndMarker
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	text := string(data)
	begin := strings.Index(text, autopilotBeginMarker)
	end := strings.Index(text, autopilotEndMarker)
	if begin >= 0 && end > begin {
		text = text[:begin] + section + text[end+len(autopilotEndMarker):]
	} else {
		if text != "" && !strings.HasSuffix(text, "\n") {
			text += "\n"
		}
		text += "\n## Autopilot — confidence-pruned ablation search\n\n" + section + "\n"
	}
	return os.WriteFile(path, []byte(text), 0o644)
}
