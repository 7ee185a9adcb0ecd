package main

import (
	"fmt"
	"io"
	"math"
	"time"

	"ucp/internal/harness"
	"ucp/internal/sim"
)

// The sampled-simulation gate: a paired full-vs-sampled sweep over the
// machine configurations of the paper's headline comparison (no µ-op
// cache / baseline / UCP) on crypto01, the small-footprint trace the
// bounded-horizon FastSampling geometry is specified for. Both sides of
// every pair run in this one process, back to back, so the wall-clock
// ratio compares like against like (the box's thermal state drifts
// between processes by ±20%).
//
// Gated bounds, also documented in EXPERIMENTS.md:
//   - per-point |sampled IPC − full IPC| / full IPC < 2%
//   - aggregate wall-clock speedup (Σ full / Σ sampled) ≥ 10×
//   - the sampled side is deterministic: two passes must produce
//     byte-identical determinism digests.
const (
	sampleGateTrace   = "crypto01"
	sampleGateWarmup  = 400_000
	sampleGateMeasure = 25_000_000
	sampleGateMaxErr  = 0.02
	sampleGateMinSpd  = 10.0
)

// sampleRow is one measured gate point, an element of the record's
// points list.
type sampleRow struct {
	Config     string  `json:"config"`
	FullIPC    float64 `json:"full_ipc"`
	SampledIPC float64 `json:"sampled_ipc"`
	IPCErr     float64 `json:"ipc_err"`
	IPCCI95    float64 `json:"ipc_ci95"`
	Windows    int     `json:"windows"`
	FullMS     int64   `json:"full_ms"`
	SampledMS  int64   `json:"sampled_ms"`
	Skipped    uint64  `json:"skipped_insts"`
	FF         uint64  `json:"functional_insts"`
	Detailed   uint64  `json:"detailed_insts"`
}

// sampleBench is the gate's BENCH_sampling.json payload.
type sampleBench struct {
	MaxIPCErrBound  float64     `json:"max_ipc_err_bound"`
	MinSpeedupBound float64     `json:"min_speedup_bound"`
	Points          []sampleRow `json:"points"`
	MaxIPCErr       float64     `json:"max_ipc_err"`
	FullTotalMS     int64       `json:"full_total_ms"`
	SampledTotalMS  int64       `json:"sampled_total_ms"`
	Speedup         float64     `json:"speedup"`
}

// runSampleGate executes the paired sweep and checks its bounds.
func runSampleGate(w io.Writer) (any, []string, error) {
	run, err := programRun(sampleGateTrace, sampleGateWarmup, sampleGateMeasure)
	if err != nil {
		return nil, nil, err
	}

	var (
		bench                  = sampleBench{MaxIPCErrBound: sampleGateMaxErr, MinSpeedupBound: sampleGateMinSpd}
		totalFull, totalSample time.Duration
		v                      violations
	)
	for _, pt := range []struct {
		label string
		cfg   sim.Config
	}{{"no-uop-cache", harness.NoUop()}, {"baseline", harness.BaselineCfg()}, {"UCP", harness.UCP()}} {
		full, fullDur, err := run(pt.cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("full %s: %v", pt.label, err)
		}
		scfg := pt.cfg
		scfg.Sampling = sim.FastSampling()
		sampled, sampledDur, err := run(scfg)
		if err != nil {
			return nil, nil, fmt.Errorf("sampled %s: %v", pt.label, err)
		}

		// Determinism: a second sampled pass must digest identically.
		again, _, err := run(scfg)
		if err != nil {
			return nil, nil, fmt.Errorf("sampled repeat %s: %v", pt.label, err)
		}
		v.check(sampled.DeterminismDigest() == again.DeterminismDigest(),
			"%s: two sampled passes digest differently", pt.label)

		relErr := math.Abs(sampled.IPC-full.IPC) / full.IPC
		totalFull += fullDur
		totalSample += sampledDur
		s := sampled.Sampled
		bench.Points = append(bench.Points, sampleRow{
			Config: pt.label, FullIPC: full.IPC, SampledIPC: sampled.IPC,
			IPCErr: relErr, IPCCI95: s.IPCCI95, Windows: s.Windows,
			FullMS: fullDur.Milliseconds(), SampledMS: sampledDur.Milliseconds(),
			Skipped: s.SkippedInsts, FF: s.FFInsts, Detailed: s.DetailedInsts,
		})
		bench.MaxIPCErr = math.Max(bench.MaxIPCErr, relErr)
		status := "ok"
		if !v.check(relErr < sampleGateMaxErr, "%s: IPC error %.2f%% exceeds the %.0f%% bound",
			pt.label, relErr*100, sampleGateMaxErr*100) {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  %-14s full IPC %.4f (%5dms)  sampled IPC %.4f ±%.4f (%4dms, %d windows)  err %.2f%%  %s\n",
			pt.label, full.IPC, fullDur.Milliseconds(), sampled.IPC, s.IPCCI95,
			sampledDur.Milliseconds(), s.Windows, relErr*100, status)
	}

	if totalSample > 0 {
		bench.Speedup = float64(totalFull) / float64(totalSample)
	}
	v.check(bench.Speedup >= sampleGateMinSpd, "aggregate speedup %.1fx below the %.0fx bound",
		bench.Speedup, sampleGateMinSpd)
	bench.FullTotalMS, bench.SampledTotalMS = totalFull.Milliseconds(), totalSample.Milliseconds()
	fmt.Fprintf(w, "  aggregate: full %dms, sampled %dms — %.1fx speedup (bound: ≥%.0fx, err <%.0f%%)\n",
		bench.FullTotalMS, bench.SampledTotalMS, bench.Speedup, sampleGateMinSpd, sampleGateMaxErr*100)
	return bench, v, nil
}
