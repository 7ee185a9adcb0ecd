// Command ucpsim runs one machine configuration over one or more
// synthetic workloads (or a recorded trace file) and prints the key
// metrics: IPC, µ-op cache hit rate, switch PKI, conditional MPKI, and
// — when UCP is enabled — trigger/prefetch statistics.
//
// Multi-profile runs (and -compare) execute on an internal/runq worker
// pool: -jobs bounds concurrency, -cache-dir memoizes results across
// invocations, and output order is always the submission order.
//
// Examples:
//
//	ucpsim -trace srv203
//	ucpsim -trace all -ucp -warmup 800000 -measure 700000
//	ucpsim -trace all -ucp -jobs 8 -cache-dir ~/.cache/ucp
//	ucpsim -trace int02 -ucp -ucp-noind -threshold 1000
//	ucpsim -file trace.ucpt -prefetcher fnlmma
//	ucpsim -trace srv203 -sample -adaptive 0.02   # stop once the IPC CI is ±2%
//	ucpsim -trace srv203 -ucp -segments 4         # 4 segments in parallel, default boundary warm
//	ucpsim -trace srv203 -sample -segments 8      # sampled windows in parallel
//	ucpsim -trace srv205 -compare          # baseline vs UCP side by side
//	ucpsim -trace srv203 -ucp -json        # machine-readable output
//	ucpsim -trace srv206 -ucp -hist        # stream/refill distributions
//	ucpsim -trace quick -digest            # determinism digests only
//	ucpsim -trace srv203 -cpuprofile cpu.pb.gz   # pprof the hot loop
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"ucp"
	"ucp/internal/buildinfo"
	"ucp/internal/runq"
	"ucp/internal/sim"
	"ucp/internal/sweepd/client"
)

func main() {
	var (
		traceName  = flag.String("trace", "srv203", "profile name, or 'all' for the full default set")
		file       = flag.String("file", "", "run a recorded .ucpt trace file instead of a profile")
		useUCP     = flag.Bool("ucp", false, "enable the UCP alternate-path prefetcher")
		noInd      = flag.Bool("ucp-noind", false, "UCP without the dedicated indirect predictor")
		tillL1I    = flag.Bool("ucp-l1i", false, "UCP prefetching only to the L1I (no µ-op fill)")
		shared     = flag.Bool("ucp-shared-decoders", false, "UCP sharing the demand decoders")
		idealBTB   = flag.Bool("ucp-ideal-btb", false, "UCP with ideal BTB banking")
		tageConf   = flag.Bool("ucp-tage-conf", false, "use Seznec's TAGE-Conf instead of UCP-Conf")
		threshold  = flag.Int("threshold", 500, "UCP stop threshold")
		prefetcher = flag.String("prefetcher", "", "standalone L1I prefetcher: fnlmma, fnlmma++, djolt, ep, ep++")
		noUop      = flag.Bool("no-uop-cache", false, "remove the µ-op cache")
		idealUop   = flag.Bool("ideal-uop-cache", false, "perfect µ-op cache")
		warmup     = flag.Uint64("warmup", 800_000, "warmup instructions")
		measure    = flag.Uint64("measure", 700_000, "measured instructions")
		sample     = flag.Bool("sample", false, "sampled simulation: fast-forward between detailed windows (conservative geometry)")
		sampleFast = flag.Bool("sample-fast", false, "with -sample: bounded-horizon geometry (small-footprint traces only; see EXPERIMENTS.md)")
		samplePer  = flag.Uint64("sample-period", 0, "with -sample: override the sampling period (instructions)")
		sampleWin  = flag.Uint64("sample-window", 0, "with -sample: override the measured window length")
		sampleWarm = flag.Uint64("sample-warm", 0, "with -sample: override the detailed-warm length")
		sampleFF   = flag.Uint64("sample-ffwarm", 0, "with -sample: override the functional-warm horizon")
		adaptive   = flag.Float64("adaptive", 0, "with -sample: stop adding windows once the relative 95% CI half-width of the window IPC mean drops below this (0: fixed geometry)")
		adaptMin   = flag.Int("adaptive-min", 0, "with -adaptive: minimum windows before the first stop check (0: default)")
		adaptMax   = flag.Int("adaptive-max", 0, "with -adaptive: cap on windows even if the target is unmet (0: the fixed-geometry budget)")
		segments   = flag.Int("segments", 0, "time-parallel run: split the measured region into this many boundary-warmed segments (conservative warm: unbounded cache and predictor horizons); with -sample, any value > 1 runs the sampled windows in parallel instead, warmed by the sampling geometry (0/1: serial)")
		compare    = flag.Bool("compare", false, "run baseline AND UCP, reporting the speedup")
		jsonOut    = flag.Bool("json", false, "emit machine-readable JSON instead of the table")
		hist       = flag.Bool("hist", false, "print stream-length and refill-latency distributions")
		jobs       = flag.Int("jobs", 0, "concurrent simulations (default GOMAXPROCS); output order is unaffected")
		cacheDir   = flag.String("cache-dir", "", "content-addressed result cache directory (empty: no on-disk cache)")
		arena      = flag.Bool("arena", false, "decode each workload once into a shared in-memory arena (results are byte-identical)")
		ckptDir    = flag.String("ckpt-dir", "", "warm-checkpoint store directory for sampled and time-parallel runs (empty: no checkpoint reuse)")
		ckptMax    = flag.Int64("ckpt-max-bytes", 0, "bound the checkpoint directory's on-disk bytes, pruning least-recently-verified blobs (0: unbounded)")
		digest     = flag.Bool("digest", false, "print Result.DeterminismDigest instead of the metric table (optimization-neutrality gate)")
		server     = flag.String("server", "", "run simulations against a sweepd server at this URL instead of in-process")
		version    = flag.Bool("version", false, "print model/schema/protocol versions and exit")
		cpuProf    = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a pprof allocation profile to this file on exit")
	)
	flag.Parse()

	if *version {
		buildinfo.Fprint(os.Stdout, "ucpsim")
		return
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		path := *memProf
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	cfg := ucp.Baseline()
	if *useUCP {
		u := ucp.DefaultUCP()
		if *noInd {
			u = ucp.NoIndUCP()
		}
		u.StopThreshold = *threshold
		u.TillL1I = *tillL1I
		u.SharedDecoders = *shared
		u.IdealBTBBanking = *idealBTB
		if *tageConf {
			u.Estimator = ucp.EstimatorTageConf
		}
		cfg = ucp.WithUCP(u)
	}
	cfg.L1IPrefetcher = *prefetcher
	cfg.Ideal.NoUopCache = *noUop
	cfg.Ideal.UopAlwaysHit = *idealUop
	cfg.WarmupInsts, cfg.MeasureInsts = *warmup, *measure
	if *sample {
		sc := ucp.ConservativeSampling()
		if *sampleFast {
			sc = ucp.FastSampling()
		}
		if *samplePer > 0 {
			sc.PeriodInsts = *samplePer
		}
		if *sampleWin > 0 {
			sc.DetailedInsts = *sampleWin
		}
		if *sampleWarm > 0 {
			sc.WarmInsts = *sampleWarm
		}
		if *sampleFF > 0 {
			sc.FFWarmInsts = *sampleFF
		}
		if *adaptive > 0 {
			sc.TargetCI = *adaptive
			sc.MinWindows = *adaptMin
			sc.MaxWindows = *adaptMax
		}
		cfg.Sampling = sc
	}
	if *adaptive > 0 && !*sample {
		fmt.Fprintln(os.Stderr, "ucpsim: -adaptive requires -sample (the stop rule acts on sampled windows)")
		os.Exit(1)
	}
	if err := cfg.ValidateSegments(*segments); err != nil {
		fmt.Fprintln(os.Stderr, "ucpsim:", err)
		os.Exit(1)
	}
	pool := runq.New(runq.Options{
		Workers:      *jobs,
		CacheDir:     *cacheDir,
		UseArena:     *arena,
		CkptDir:      *ckptDir,
		CkptMaxBytes: *ckptMax,
		CkptNow:      func() int64 { return time.Now().UnixNano() }, //ucplint:ignore wallclock // checkpoint-pruning clock, injected only here
	})
	var exec runq.Runner = pool
	if *server != "" {
		if *file != "" {
			// A recorded trace is local state; its content digest cannot be
			// resolved against a remote server's filesystem.
			fmt.Fprintln(os.Stderr, "ucpsim: -file and -server are incompatible; recorded traces run in-process")
			os.Exit(1)
		}
		exec = client.New(*server)
	}
	if *file != "" {
		runFile(pool, cfg, *file, *warmup, *measure, *segments)
		return
	}
	var profiles []ucp.Profile
	switch *traceName {
	case "all":
		profiles = ucp.DefaultProfiles()
	case "quick":
		profiles = ucp.QuickProfiles()
	default:
		p, ok := ucp.ProfileByName(*traceName)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown profile %q; available:", *traceName)
			for _, pr := range ucp.DefaultProfiles() {
				fmt.Fprintf(os.Stderr, " %s", pr.Name)
			}
			fmt.Fprintln(os.Stderr)
			os.Exit(1)
		}
		profiles = []ucp.Profile{p}
	}
	if *compare {
		runCompare(exec, profiles, *warmup, *measure, *segments)
		return
	}
	jobList := make([]runq.Job, len(profiles))
	for i, p := range profiles {
		jobList[i] = runq.Job{Config: cfg, Profile: p, Warmup: *warmup, Measure: *measure, Segments: *segments}
	}
	results := exec.RunAll(jobList)
	if !*jsonOut && !*digest {
		header()
	}
	for i, jr := range results {
		if jr.Err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", profiles[i].Name, jr.Err)
			os.Exit(1)
		}
		if *digest {
			fmt.Print(jr.Result.DeterminismDigest())
			continue
		}
		emit(jr.Result, *jsonOut, *hist)
	}
}

// runCompare runs the baseline and UCP over each profile
// (interleaved base/UCP job pairs) and reports the per-trace speedup.
func runCompare(exec runq.Runner, profiles []ucp.Profile, warmup, measure uint64, segments int) {
	base := ucp.Baseline()
	withUCP := ucp.WithUCP(ucp.DefaultUCP())
	jobList := make([]runq.Job, 0, 2*len(profiles))
	for _, p := range profiles {
		jobList = append(jobList,
			runq.Job{Config: base, Profile: p, Warmup: warmup, Measure: measure, Segments: segments},
			runq.Job{Config: withUCP, Profile: p, Warmup: warmup, Measure: measure, Segments: segments})
	}
	results := exec.RunAll(jobList)
	fmt.Printf("%-10s %10s %10s %10s %9s %9s\n",
		"trace", "base IPC", "UCP IPC", "speedup%", "HR base%", "HR UCP%")
	for i, p := range profiles {
		b, u := results[2*i], results[2*i+1]
		if b.Err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", p.Name, b.Err)
			os.Exit(1)
		}
		if u.Err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", p.Name, u.Err)
			os.Exit(1)
		}
		fmt.Printf("%-10s %10.4f %10.4f %+10.2f %9.2f %9.2f\n",
			p.Name, b.Result.IPC, u.Result.IPC, 100*(u.Result.IPC/b.Result.IPC-1),
			b.Result.UopHitRate*100, u.Result.UopHitRate*100)
	}
}

// emit prints one result as a table row or JSON object.
func emit(r sim.Result, asJSON, withHist bool) {
	if asJSON {
		out := map[string]any{
			"trace":            r.Trace,
			"config":           r.Name,
			"instructions":     r.Insts,
			"cycles":           r.Cycles,
			"ipc":              r.IPC,
			"uopHitRate":       r.UopHitRate,
			"switchPKI":        r.SwitchPKI,
			"condMPKI":         r.CondMPKI,
			"prefetchAccuracy": r.PrefetchAccuracy,
			"ucp": map[string]any{
				"triggers":     r.UCP.Triggers,
				"fills":        r.UCP.FillsInserted,
				"prefetches":   r.UCP.PrefetchesIssued,
				"linesPerPath": safeDiv(r.UCP.LinesPrefetched, r.UCP.Triggers),
				"storageKB":    r.UCPStorageKB,
				"btbConflicts": r.UCP.BTBConflicts,
			},
		}
		if s := r.Sampled; s != nil {
			sampled := map[string]any{
				"windows":       s.Windows,
				"skippedInsts":  s.SkippedInsts,
				"ffInsts":       s.FFInsts,
				"detailedInsts": s.DetailedInsts,
				"measuredInsts": s.MeasuredInsts,
				"ipcMean":       s.IPCMean,
				"ipcCI95":       s.IPCCI95,
				"mpkiMean":      s.MPKIMean,
				"mpkiCI95":      s.MPKICI95,
			}
			if s.TargetCI > 0 {
				sampled["targetCI"] = s.TargetCI
				sampled["windowBudget"] = s.WindowBudget
				sampled["targetMet"] = s.TargetMet
			}
			out["sampled"] = sampled
		}
		if tp := r.TimePar; tp != nil {
			out["timepar"] = map[string]any{
				"segments":     tp.Segments,
				"boundaries":   tp.Boundaries,
				"segInsts":     tp.SegInsts,
				"segCycles":    tp.SegCycles,
				"segIPC":       tp.SegIPC,
				"skippedInsts": tp.SkippedInsts,
				"ffInsts":      tp.FFInsts,
			}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	row(r)
	if s := r.Sampled; s != nil {
		fmt.Printf("%-10s sampled: %d windows, IPC %.4f ±%.4f, MPKI %.3f ±%.3f (95%% CI); %d skipped / %d functional / %d detailed\n",
			r.Trace, s.Windows, s.IPCMean, s.IPCCI95, s.MPKIMean, s.MPKICI95,
			s.SkippedInsts, s.FFInsts, s.DetailedInsts)
		if s.TargetCI > 0 {
			verdict := "target met"
			if !s.TargetMet {
				verdict = "budget exhausted"
			}
			fmt.Printf("%-10s adaptive: %d/%d windows, target ±%.2f%% — %s\n",
				r.Trace, s.Windows, s.WindowBudget, s.TargetCI*100, verdict)
		}
	}
	if tp := r.TimePar; tp != nil {
		fmt.Printf("%-10s timepar: %d segments; %d skipped / %d functional at boundaries\n",
			r.Trace, tp.Segments, tp.SkippedInsts, tp.FFInsts)
	}
	if withHist {
		fmt.Println(r.StreamLens.Render())
		fmt.Println(r.RefillLat.Render())
	}
}

func safeDiv(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// runFile executes cfg over a recorded trace through the pool, which
// decodes the file once into a shared arena (with O(1) sampled-mode
// seeking via the tracegen sidecar index when present) and serves any
// repeat invocation from the result cache.
func runFile(pool *runq.Pool, cfg sim.Config, path string, warmup, measure uint64, segments int) {
	rs := pool.RunAll([]runq.Job{{Config: cfg, TraceFile: path, Warmup: warmup, Measure: measure, Segments: segments}})
	if rs[0].Err != nil {
		fmt.Fprintln(os.Stderr, rs[0].Err)
		os.Exit(1)
	}
	header()
	row(rs[0].Result)
}

func header() {
	fmt.Printf("%-10s %8s %8s %9s %9s %9s %10s %9s\n",
		"trace", "IPC", "uopHR%", "switchPKI", "condMPKI", "ucpTrig", "ucpFills", "prefAcc%")
}

func row(r sim.Result) {
	fmt.Printf("%-10s %8.4f %8.2f %9.2f %9.2f %9d %10d %9.2f\n",
		r.Trace, r.IPC, r.UopHitRate*100, r.SwitchPKI, r.CondMPKI,
		r.UCP.Triggers, r.UCP.FillsInserted, r.PrefetchAccuracy*100)
}
