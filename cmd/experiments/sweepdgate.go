package main

import (
	"fmt"
	"io"
	"net"
	"net/http"

	"ucp/internal/runq"
	"ucp/internal/sweepd"
	"ucp/internal/sweepd/client"
)

// The sweepd gate: the same crypto01 threshold-ablation sweep the
// sweep-reuse gate uses, run three ways in this one process —
// in-process on a local pool, remotely through a sweepd server on a
// loopback listener (cold: the server executes every job), and
// remotely again (warm: every submission coalesces onto the server's
// finished jobs, nothing re-executes). Local and remote passes use
// identical pool tiers (shared arena + warm checkpoints).
//
// Gated bounds, also documented in EXPERIMENTS.md:
//   - wire neutrality: every config's determinism digest must be
//     byte-identical local vs remote (the JSON round-trip over the
//     API is lossless);
//   - the server executes each distinct job exactly once across both
//     remote passes (fleet-wide dedup), with the whole second pass
//     served from its caches;
//   - the server's checkpoint tier behaves like the local one:
//     exactly one capture, every other execution restored from it.

// sweepdBench is the gate's BENCH_sweepd.json payload.
type sweepdBench struct {
	Configs          int    `json:"configs"`
	Protocol         string `json:"protocol"`
	LocalMS          int64  `json:"local_ms"`
	RemoteColdMS     int64  `json:"remote_cold_ms"`
	RemoteWarmMS     int64  `json:"remote_warm_ms"`
	ServerRuns       int    `json:"server_runs"`
	JobsSubmitted    int    `json:"jobs_submitted"`
	JobsCoalesced    int    `json:"jobs_coalesced"`
	CkptCaptured     int    `json:"ckpt_captured"`
	CkptRestored     int    `json:"ckpt_restored"`
	DigestsIdentical bool   `json:"digests_identical"`
}

// runSweepdGate executes the three passes and checks their bounds.
func runSweepdGate(w io.Writer) (any, []string, error) {
	jobs, err := sweepReuseJobs()
	if err != nil {
		return nil, nil, err
	}

	tiers := runq.Options{UseArena: true, Checkpoints: true}

	// Local pass: the reference digests.
	localRes, localDur, err := timedRunAll(runq.New(tiers), jobs)
	if err != nil {
		return nil, nil, fmt.Errorf("local pass: %v", err)
	}

	// The server, on a real loopback listener — the same HTTP path any
	// remote client takes, minus only the physical network. No clock is
	// wired: the gate reads none of the server's ETAs or latencies.
	srv := sweepd.New(sweepd.Config{Pool: tiers})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	defer srv.Shutdown(nil)
	cl := client.New("http://" + ln.Addr().String())

	coldRes, coldDur, err := timedRunAll(cl, jobs)
	if err != nil {
		return nil, nil, fmt.Errorf("remote cold pass: %v", err)
	}
	warmRes, warmDur, err := timedRunAll(cl, jobs)
	if err != nil {
		return nil, nil, fmt.Errorf("remote warm pass: %v", err)
	}
	st, err := cl.Statz()
	if err != nil {
		return nil, nil, fmt.Errorf("statz: %v", err)
	}

	var v violations
	sameCold := v.matchDigests(jobs, localRes, coldRes, "remote cold digest diverges from local digest")
	sameWarm := v.matchDigests(jobs, localRes, warmRes, "remote warm digest diverges from local digest")
	v.check(st.Pool.Runs == len(jobs),
		"server executed %d jobs across both passes, want exactly %d (dedup broken)", st.Pool.Runs, len(jobs))
	v.check(st.JobsCoalesced >= len(jobs),
		"only %d submissions coalesced, want >= %d (the whole warm pass)", st.JobsCoalesced, len(jobs))
	v.check(st.JobsFailed == 0, "%d job(s) failed server-side", st.JobsFailed)
	v.check(st.CkptCaptured == 1 && st.CkptRestored == len(jobs)-1,
		"server checkpoint tier captured %d / restored %d, want 1 and %d",
		st.CkptCaptured, st.CkptRestored, len(jobs)-1)

	fmt.Fprintf(w, "  local %dms  remote cold %dms  remote warm %dms (all %d resubmissions coalesced)\n",
		localDur.Milliseconds(), coldDur.Milliseconds(), warmDur.Milliseconds(), len(jobs))
	fmt.Fprintf(w, "  digests: %d/%d byte-identical local vs remote; server ran %d jobs, captured %d ckpt, restored %d\n",
		sameCold, len(jobs), st.Pool.Runs, st.CkptCaptured, st.CkptRestored)

	return sweepdBench{
		Configs: len(jobs), Protocol: sweepd.ProtocolVersion,
		LocalMS: localDur.Milliseconds(), RemoteColdMS: coldDur.Milliseconds(), RemoteWarmMS: warmDur.Milliseconds(),
		ServerRuns: st.Pool.Runs, JobsSubmitted: st.JobsSubmitted, JobsCoalesced: st.JobsCoalesced,
		CkptCaptured: st.CkptCaptured, CkptRestored: st.CkptRestored, DigestsIdentical: sameCold+sameWarm == 2*len(jobs),
	}, v, nil
}
