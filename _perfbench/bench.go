package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"

	"ucp/internal/runq"
	"ucp/internal/sim"
	"ucp/internal/trace"
)

const (
	// minReps is the fewest timed repetitions a measurement takes, even
	// when one repetition outlasts the time budget.
	minReps = 3
	// minSetups is the fewest set-ups setup_s is the median of; set-ups
	// beyond the repetitions' own are added while the budget allows.
	minSetups = 9
)

// bench runs one workload and does the failure accounting: every job of
// every repetition is attempted once, and fails if it errors, misses
// its pin, or (traced) digests differently from the untraced run.
type bench struct {
	w    *workload
	seed uint64
	pins workloadPins
	log  io.Writer

	attempted, failed int
	digests           map[string]string // job → digest SHA of the first repetition
}

// rep is one timed repetition. Its instance is dropped once measured,
// so repetitions do not accumulate memory.
type rep struct {
	wall  float64 // seconds, timed region only
	cpu   float64 // process CPU seconds (user+system) in the timed region
	setup float64 // seconds, the set-up that preceded it
	rss   float64 // MB, peak resident set of the set-up and repetition
	// layers holds a traced repetition's per-layer metrics.
	layers map[string]float64
}

// fail records a failed job and prints it.
func (b *bench) fail(job string, err error) {
	b.failed++
	fmt.Fprintf(b.log, "perfbench: FAIL %s/%s: %v\n", b.w.name, job, err)
}

// account checks one repetition's outcomes.
func (b *bench) account(outs []outcome) {
	exact := b.seed == b.pins.Seed
	if b.digests == nil {
		b.digests = make(map[string]string)
	}
	for _, o := range outs {
		b.attempted++
		if err := b.pins.check(o, exact); err != nil {
			b.fail(o.job, err)
			continue
		}
		d := digestSHA(o.res)
		if first, ok := b.digests[o.job]; !ok {
			b.digests[o.job] = d
		} else if d != first {
			b.fail(o.job, fmt.Errorf("digest %.12s differs from the first repetition's %.12s", d, first))
		}
	}
}

// measure runs timed repetitions, each after its own fresh set-up, for
// about `seconds` of host time (at least minReps repetitions of each
// kind). With alternate, every second repetition is traced, so traced
// and untraced repetitions see the same host conditions. It returns the
// last traced (else last) repetition's instance and outcomes for the
// reference and replay runs.
func (b *bench) measure(seconds float64, alternate bool) ([]rep, *instance, []outcome, error) {
	var (
		reps []rep
		last *instance
		outs []outcome
	)
	want := minReps
	if alternate {
		want *= 2
	}
	start := nowNs()
	elapsed := func() float64 { return float64(nowNs()-start) / 1e9 }
	for len(reps) < want || elapsed()+median(walls(reps)) <= seconds {
		traced := alternate && len(reps)%2 == 1
		if !alternate {
			last, outs = nil, nil
		}
		// Return the previous repetition's memory to the OS and restart
		// the high-water mark, so each repetition's peak is its own.
		debug.FreeOSMemory()
		resetPeakRSS()
		t0 := nowNs()
		in, err := b.w.setup(b.seed, traced)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s: set-up: %w", b.w.name, err)
		}
		c1 := cpuSeconds()
		t1 := nowNs()
		o := in.run()
		t2 := nowNs()
		c2 := cpuSeconds()
		b.account(o)
		r := rep{wall: float64(t2-t1) / 1e9, cpu: c2 - c1, setup: float64(t1-t0) / 1e9, rss: peakRSSMB()}
		if traced {
			r.layers = layerMetrics(in, o, r.wall)
		}
		if traced || !alternate {
			last, outs = in, o
		}
		reps = append(reps, r)
	}
	return reps, last, outs, nil
}

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func cpus(reps []rep) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = r.cpu
	}
	return out
}

func rssMB(reps []rep) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = r.rss
	}
	return out
}

func walls(reps []rep) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = r.wall
	}
	return out
}

// setupTimes returns the repetitions' set-up times plus extra set-ups
// up to minSetups while they fit in budget seconds.
func (b *bench) setupTimes(reps []rep, budget float64) ([]float64, error) {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = r.setup
	}
	spent := 0.0
	for len(out) < minSetups && spent+median(out) <= budget {
		runtime.GC()
		t0 := nowNs()
		if _, err := b.w.setup(b.seed, false); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", b.w.name, err)
		}
		d := float64(nowNs()-t0) / 1e9
		out = append(out, d)
		spent += d
	}
	return out, nil
}

// endToEnd measures untraced repetitions for about `seconds`.
func (b *bench) endToEnd(seconds float64) (map[string]metric, error) {
	// A tenth of the budget goes to extra set-ups, the rest to timed
	// repetitions.
	reps, in, _, err := b.measure(seconds*0.9, false)
	if err != nil {
		return nil, err
	}
	setups, err := b.setupTimes(reps, seconds*0.1)
	if err != nil {
		return nil, err
	}
	wall := median(walls(reps))
	var insts uint64
	for _, j := range in.jobs {
		insts += simInsts(j)
	}
	fmt.Fprintf(b.log, "perfbench: %d repetitions, wall_s %s, cpu_s %s, peak_rss_mb %s\n",
		len(reps), spread(walls(reps)), spread(cpus(reps)), spread(rssMB(reps)))
	return map[string]metric{
		"setup_s":     {median(setups), "s"},
		"wall_s":      {wall, "s"},
		"sim_mips":    {float64(insts) / wall / 1e6, "Minst/s"},
		"peak_rss_mb": {median(rssMB(reps)), "MB"},
	}, nil
}

// perLayer alternates untraced and traced repetitions and reports the
// per-layer metrics of the traced ones.
func (b *bench) perLayer(seconds float64) (map[string]metric, error) {
	reps, last, lastOuts, err := b.measure(seconds, true)
	if err != nil {
		return nil, err
	}
	var plain, traced []rep
	var per []map[string]float64
	for _, r := range reps {
		if r.layers == nil {
			plain = append(plain, r)
			continue
		}
		traced = append(traced, r)
		per = append(per, r.layers)
	}
	m := medianMetrics(per)
	m["bench.trace_overhead_pct"] = (median(walls(traced))/median(walls(plain)) - 1) * 100

	// The reference run: ipc_err_pct, and the chain-serial instruction
	// count the window-parallel work ratio is taken over.
	ref, chainConsumed, err := reference(last)
	if err != nil {
		b.attempted++
		b.fail("reference", err)
	} else if b.seed == b.pins.Seed && b.w.ref != refNone {
		b.attempted++
		if ref != b.pins.RefIPC {
			b.fail("reference", fmt.Errorf("reference IPC %.9f, pinned %.9f", ref, b.pins.RefIPC))
		}
	}
	m["sim.ipc_err_pct"] = 0
	if ref > 0 {
		ipc := primary(lastOuts).res.IPC
		m["sim.ipc_err_pct"] = abs(ipc-ref) / ref * 100
	}
	if chainConsumed > 0 {
		m["wpar.work_ratio"] = m["wpar.source_minsts"] * 1e6 / float64(chainConsumed)
	}

	ops := newReplayOps(last.prog)
	rr, err := ops.replay(last.primary().Config)
	if err != nil {
		b.attempted++
		b.fail("replay", err)
	}
	m["trace.arena_decode_ns"] = rr.arenaDecodeNs
	m["trace.arena_skip_ns"] = rr.arenaSkipNs
	m["bpred.predict_update_ns"] = rr.predictUpdateNs
	m["bpred.hist_push_ns"] = rr.histPushNs
	m["cache.fetch_ns"] = rr.cacheNs
	m["btb.lookup_ns"] = rr.btbNs
	m["uopcache.lookup_ns"] = rr.uopNs
	m["ckpt.blob_kb"] = float64(rr.blobBytes) / 1024
	m["ckpt.encode_ns_per_kb"] = rr.encodeNsPerKB
	m["ckpt.decode_ns_per_kb"] = rr.decodeNsPerKB

	fmt.Fprintf(b.log, "perfbench: tracing overhead %.1f%%: untraced wall_s %s, traced wall_s %s\n",
		m["bench.trace_overhead_pct"], spread(walls(plain)), spread(walls(traced)))
	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		v, ok := m[name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", name)
		}
		out[name] = metric{v, unit}
	}
	return out, nil
}

// primary returns the outcome of the primary job.
func primary(outs []outcome) outcome {
	for _, o := range outs {
		if o.job == primaryJob {
			return o
		}
	}
	return outs[0]
}

// primary returns the primary job.
func (in *instance) primary() runq.Job {
	for _, j := range in.jobs {
		if j.Config.Name == primaryJob {
			return j
		}
	}
	return in.jobs[0]
}

// reference runs the primary job's reference configuration once over
// a counted stream and returns its IPC and the instructions it
// consumed. Full-detail workloads have no reference (0).
func reference(in *instance) (ipc float64, consumed uint64, err error) {
	job := in.primary()
	cfg := job.Config
	cfg.WarmupInsts, cfg.MeasureInsts = job.Warmup, job.Measure
	switch in.w.ref {
	case refNone:
		return 0, 0, nil
	case refFullDetail:
		cfg.Sampling = sim.SamplingConfig{}
	}
	var st srcStats
	src := wrapSource(trace.NewLimit(trace.NewWalker(in.prog), budget(job)), &st)
	res, err := sim.Run(cfg, src, in.prog, job.Profile.Name)
	return res.IPC, st.consumed(), err
}

// medianMetrics takes each metric's median over the repetitions.
func medianMetrics(per []map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for name := range per[0] {
		xs := make([]float64, len(per))
		for i, m := range per {
			xs[i] = m[name]
		}
		out[name] = median(xs)
	}
	return out
}

// spread renders xs in run order with their median, for the log.
func spread(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return fmt.Sprintf("median %.4f of [%s]", median(xs), strings.Join(parts, " "))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
