package main

import "sort"

// layerUnits lists every per-layer metric with its unit. Metrics of a
// layer a workload does not exercise read 0 (README.md lists which).
var layerUnits = map[string]string{
	"sim.warming_s":                  "s",
	"sim.measuring_s":                "s",
	"sim.window_ms_p50":              "ms",
	"sim.detailed_s":                 "s",
	"sim.ipc":                        "inst/cycle",
	"sim.ucp_ipc_gain_pct":           "%",
	"sim.ipc_err_pct":                "%",
	"trace.skip_minsts":              "Minst",
	"trace.skipwarm_minsts":          "Minst",
	"trace.delivered_minsts":         "Minst",
	"trace.skip_s":                   "s",
	"trace.skipwarm_self_s":          "s",
	"trace.deliver_s":                "s",
	"trace.arena_decode_ns":          "ns",
	"trace.arena_skip_ns":            "ns",
	"bpred.train_calls":              "count",
	"bpred.train_s":                  "s",
	"bpred.predict_update_ns":        "ns",
	"bpred.hist_push_ns":             "ns",
	"bpred.cond_mpki":                "1/kinst",
	"cache.warm_calls":               "count",
	"cache.warm_s":                   "s",
	"cache.fetch_ns":                 "ns",
	"cache.l1i_miss_rate":            "ratio",
	"btb.lookup_ns":                  "ns",
	"uopcache.lookup_ns":             "ns",
	"uopcache.hit_rate":              "ratio",
	"uopcache.prefetch_accuracy":     "ratio",
	"frontend.switch_pki":            "1/kinst",
	"frontend.refill_lat_p50_cycles": "cycles",
	"frontend.refill_lat_p90_cycles": "cycles",
	"core.ucp_s":                     "s",
	"core.ucp_share":                 "ratio",
	"core.walked_minsts":             "Minst",
	"core.triggers":                  "count",
	"core.fills_inserted":            "count",
	"core.ns_per_walked_inst":        "ns",
	"ckpt.captured":                  "count",
	"ckpt.restored":                  "count",
	"ckpt.capture_s":                 "s",
	"ckpt.restore_s":                 "s",
	"ckpt.blob_kb":                   "KiB",
	"ckpt.encode_ns_per_kb":          "ns/KiB",
	"ckpt.decode_ns_per_kb":          "ns/KiB",
	"runq.runs":                      "count",
	"runq.memo_hits":                 "count",
	"runq.retries":                   "count",
	"runq.failures":                  "count",
	"runq.job_s_p50":                 "s",
	"runq.job_s_max":                 "s",
	"runq.idle_s":                    "s",
	"wpar.windows":                   "count",
	"wpar.source_minsts":             "Minst",
	"wpar.work_ratio":                "ratio",
	"wpar.boundary_s":                "s",
	"bench.trace_overhead_pct":       "%",
}

// layerMetrics derives one traced repetition's per-layer metrics; the
// replay, reference and overhead metrics are added by the caller.
func layerMetrics(in *instance, outs []outcome, wall float64) map[string]float64 {
	m := make(map[string]float64)
	p := primary(outs).res

	var warming, measuring, inSource float64
	var windows, jobSecs []float64
	var tot srcStats
	var captureS float64
	var restores []float64
	dur := make(map[string]float64)
	for _, j := range in.jobs {
		jt := in.traces[j.Config.Name]
		w, ms := jt.stageSeconds()
		warming += w
		measuring += ms
		windows = append(windows, jt.windowMillis()...)
		t := jt.total()
		inSource += t.inSourceSeconds()
		tot.next.add(t.next)
		tot.delivered += t.delivered
		tot.batchNs += t.batchNs
		tot.skipped += t.skipped
		tot.skipNs += t.skipNs
		tot.skipWarmed += t.skipWarmed
		tot.skipWarmNs += t.skipWarmNs
		tot.cond.add(t.cond)
		tot.cache.add(t.cache)
		d := float64(jt.end-jt.start) / 1e9
		dur[j.Config.Name] = d
		jobSecs = append(jobSecs, d)
		if in.store != nil {
			// A job that fast-forwarded its own warmup captured the
			// checkpoint; one that only seeked restored it.
			if jt.warmSkipAtMeasure > 0 {
				captureS += w
			} else {
				restores = append(restores, w)
			}
		}
	}

	m["sim.warming_s"] = warming
	m["sim.measuring_s"] = measuring
	m["sim.window_ms_p50"] = median(windows)
	m["sim.detailed_s"] = warming + measuring - inSource
	m["sim.ipc"] = p.IPC
	m["sim.ucp_ipc_gain_pct"] = 0
	if base, ok := outcomeOf(outs, "baseline"); ok && base.res.IPC > 0 {
		m["sim.ucp_ipc_gain_pct"] = (p.IPC/base.res.IPC - 1) * 100
	}

	m["trace.skip_minsts"] = float64(tot.skipped) / 1e6
	m["trace.skipwarm_minsts"] = float64(tot.skipWarmed) / 1e6
	m["trace.delivered_minsts"] = float64(tot.delivered) / 1e6
	m["trace.skip_s"] = float64(tot.skipNs) / 1e9
	m["trace.skipwarm_self_s"] = max(0, float64(tot.skipWarmNs)/1e9-tot.cond.seconds()-tot.cache.seconds())
	m["trace.deliver_s"] = tot.deliverSeconds()

	m["bpred.train_calls"] = float64(tot.cond.calls)
	m["bpred.train_s"] = tot.cond.seconds()
	m["bpred.cond_mpki"] = p.CondMPKI
	m["cache.warm_calls"] = float64(tot.cache.calls)
	m["cache.warm_s"] = tot.cache.seconds()
	m["cache.l1i_miss_rate"] = 0
	if p.L1I.Accesses > 0 {
		m["cache.l1i_miss_rate"] = float64(p.L1I.Misses) / float64(p.L1I.Accesses)
	}

	m["uopcache.hit_rate"] = p.UopHitRate
	m["uopcache.prefetch_accuracy"] = p.PrefetchAccuracy
	m["frontend.switch_pki"] = p.SwitchPKI
	m["frontend.refill_lat_p50_cycles"] = 0
	m["frontend.refill_lat_p90_cycles"] = 0
	if p.RefillLat != nil {
		m["frontend.refill_lat_p50_cycles"] = float64(p.RefillLat.Percentile(50))
		m["frontend.refill_lat_p90_cycles"] = float64(p.RefillLat.Percentile(90))
	}

	// The UCP cost from outside: the UCP job minus the baseline job over
	// the same instructions (full-compare only).
	m["core.ucp_s"], m["core.ucp_share"], m["core.ns_per_walked_inst"] = 0, 0, 0
	if _, ok := outcomeOf(outs, "baseline"); ok {
		ucpS := dur[primaryJob] - dur["baseline"]
		m["core.ucp_s"] = ucpS
		m["core.ucp_share"] = ucpS / dur[primaryJob]
		if p.UCP.WalkedInsts > 0 {
			m["core.ns_per_walked_inst"] = ucpS * 1e9 / float64(p.UCP.WalkedInsts)
		}
	}
	m["core.walked_minsts"] = float64(p.UCP.WalkedInsts) / 1e6
	m["core.triggers"] = float64(p.UCP.Triggers)
	m["core.fills_inserted"] = float64(p.UCP.FillsInserted)

	captured, restored := in.checkpointStats()
	m["ckpt.captured"] = float64(captured)
	m["ckpt.restored"] = float64(restored)
	m["ckpt.capture_s"] = captureS
	m["ckpt.restore_s"] = median(restores)

	m["runq.runs"], m["runq.memo_hits"], m["runq.retries"], m["runq.failures"] = 0, 0, 0, 0
	m["runq.job_s_p50"], m["runq.job_s_max"], m["runq.idle_s"] = 0, 0, 0
	if in.pool != nil {
		st := in.pool.Stats()
		m["runq.runs"] = float64(st.Runs)
		m["runq.memo_hits"] = float64(st.MemoHits)
		m["runq.retries"] = float64(st.Retries)
		m["runq.failures"] = float64(st.Failures)
		sort.Float64s(jobSecs)
		busy := 0.0
		for _, d := range jobSecs {
			busy += d
		}
		m["runq.job_s_p50"] = median(jobSecs)
		m["runq.job_s_max"] = jobSecs[len(jobSecs)-1]
		m["runq.idle_s"] = float64(in.w.workers)*wall - busy
	}

	m["wpar.windows"], m["wpar.source_minsts"], m["wpar.work_ratio"], m["wpar.boundary_s"] = 0, 0, 0, 0
	if p.TimePar != nil {
		jt := in.traces[primaryJob]
		var boundary float64
		for _, s := range jt.sources {
			if s.firstBatch != 0 {
				boundary += float64(s.firstBatch-s.created) / 1e9
			}
		}
		m["wpar.windows"] = float64(p.TimePar.Segments)
		m["wpar.source_minsts"] = float64(tot.consumed()) / 1e6
		m["wpar.boundary_s"] = boundary
	}
	return m
}

// outcomeOf finds a job's outcome by name.
func outcomeOf(outs []outcome, job string) (outcome, bool) {
	for _, o := range outs {
		if o.job == job {
			return o, true
		}
	}
	return outcome{}, false
}
