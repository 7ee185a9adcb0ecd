package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"ucp/internal/runq"
	"ucp/internal/sim"
	"ucp/internal/trace"
)

// The check.sh gates: each one measures a claim, checks it against
// fixed bounds, and records the measurement in BENCH_<id>.json. A gate
// only measures and judges; runGate owns the shared tail — write the
// record (also when bounds are violated, so a failing run still leaves
// its numbers behind), report each violation, and fail with a count.

// gate is one row of the gate table. id is the check.sh gate id and
// names the record file; bench is the record's description. run
// returns the record payload (a JSON object), the violated bounds, and
// an error when the gate could not measure at all.
type gate struct {
	id    string
	bench string
	run   func(w io.Writer) (payload any, violations []string, err error)
}

// gates is the gate table, in check.sh order.
func gates() []gate {
	tpar, wpar := spanGates()
	return []gate{
		{"sampling", fmt.Sprintf("sampled-simulation gate (%s, %d+%d insts, full vs FastSampling)",
			sampleGateTrace, sampleGateWarmup, sampleGateMeasure), runSampleGate},
		{"tpar", tpar.bench, tpar.run},
		{"wpar", wpar.bench, wpar.run},
		{"sweepreuse", fmt.Sprintf("sweep-reuse gate (%s, %d-config threshold ablation, cold vs arena+checkpoint pool)",
			sweepReuseTrace, len(sweepReuseThresholds)), runSweepReuseGate},
		{"autopilot", fmt.Sprintf("autopilot gate (adaptive sampling on %s; pruned vs exhaustive %d-config search on %s)",
			adaptiveGateTrace, len(autopilotConfigs()), autopilotGateTrace), runAutopilotGate},
		{"sweepd", fmt.Sprintf("sweepd gate (%s, %d-config ablation, local pool vs loopback server, cold+warm remote passes)",
			sweepReuseTrace, len(sweepReuseThresholds)), runSweepdGate},
	}
}

// gateIDs lists the gate table's ids.
func gateIDs() []string {
	var ids []string
	for _, g := range gates() {
		ids = append(ids, g.id)
	}
	return ids
}

// runGateID is -gate's exit status: 0 when gate id passes, 1 when it
// fails, 2 when no gate has that id.
func runGateID(id string) int {
	for _, g := range gates() {
		if g.id == id {
			if err := runGate(g, ".", os.Stdout, os.Stderr); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				return 1
			}
			return 0
		}
	}
	fmt.Fprintf(os.Stderr, "experiments: unknown gate %q (one of: %s)\n", id, strings.Join(gateIDs(), " "))
	return 2
}

// runGate prints g's description, runs it, writes its record into dir,
// prints each violation to errOut, and returns an error naming the gate
// when any bound is violated.
func runGate(g gate, dir string, out, errOut io.Writer) error {
	fmt.Fprintln(out, g.bench)
	payload, violations, err := g.run(out)
	if err != nil {
		return fmt.Errorf("%s gate: %v", g.id, err)
	}
	if err := writeBench(filepath.Join(dir, "BENCH_"+g.id+".json"), g.bench, payload); err != nil {
		return fmt.Errorf("%s gate: %v", g.id, err)
	}
	for _, v := range violations {
		fmt.Fprintf(errOut, "%s gate: %s\n", g.id, v)
	}
	if len(violations) > 0 {
		return fmt.Errorf("%s gate: %d bound violation(s)", g.id, len(violations))
	}
	return nil
}

// violations collects a gate's violated bounds.
type violations []string

// check records the formatted violation unless the bound holds, and
// returns holds.
func (v *violations) check(holds bool, format string, args ...any) bool {
	if !holds {
		*v = append(*v, fmt.Sprintf(format, args...))
	}
	return holds
}

// matchDigests compares two passes over jobs, recording a violation
// for each job whose determinism digest differs, and returns how many
// match.
func (v *violations) matchDigests(jobs []runq.Job, want, got []sim.Result, what string) int {
	n := 0
	for i := range jobs {
		if want[i].DeterminismDigest() == got[i].DeterminismDigest() {
			n++
		} else {
			*v = append(*v, fmt.Sprintf("%s: %s", jobs[i].Config.Name, what))
		}
	}
	return n
}

// benchRecord is the envelope every BENCH_*.json shares; check.sh's
// schema gate greps for its three keys. A gate's payload fields follow
// it at the top level of the same object.
type benchRecord struct {
	SchemaVersion int    `json:"schema_version"`
	Bench         string `json:"bench"`
	Cores         int    `json:"cores"`
}

// newBenchRecord stamps cores with GOMAXPROCS, not NumCPU: a container
// CPU quota caps what the worker pools actually schedule on, and
// check.sh stamps the shell-written records (experiments -numcpu) the
// same way, so every record describes the same machine.
func newBenchRecord(bench string) benchRecord {
	return benchRecord{SchemaVersion: 1, Bench: bench, Cores: runtime.GOMAXPROCS(0)}
}

// writeBench writes the envelope followed by payload's fields as one
// indented JSON object.
func writeBench(path, bench string, payload any) error {
	rec, err := json.Marshal(newBenchRecord(bench))
	if err != nil {
		return err
	}
	body, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	if len(body) < 2 || body[0] != '{' {
		return fmt.Errorf("bench payload %T is not a JSON object", payload)
	}
	if len(body) > 2 {
		rec = append(append(rec[:len(rec)-1], ','), body[1:]...)
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, rec, "", "  "); err != nil {
		return err
	}
	buf.WriteByte('\n')
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// timed runs f and returns its wall-clock duration. It is the gates'
// one wall-clock read: timings feed BENCH records and scaling bounds,
// never a digest.
func timed(f func()) time.Duration {
	t0 := time.Now() //ucplint:ignore wallclock
	f()
	return time.Since(t0) //ucplint:ignore wallclock
}

// timedRunAll runs jobs on r and returns their results and the pass
// wall-clock; the first failed job fails the pass.
func timedRunAll(r runq.Runner, jobs []runq.Job) ([]sim.Result, time.Duration, error) {
	var rs []runq.JobResult
	dur := timed(func() { rs = r.RunAll(jobs) })
	out := make([]sim.Result, len(rs))
	for i, jr := range rs {
		if jr.Err != nil {
			return nil, 0, fmt.Errorf("%s: %v", jobs[i].Config.Name, jr.Err)
		}
		out[i] = jr.Result
	}
	return out, dur, nil
}

// programRun builds the named trace's program once and returns a timed
// runner for configs over a fresh generated stream of it, limited to
// warmup + measure instructions plus 200K of slack. The gates that time
// single simulations use it instead of a pool, whose program build and
// memo would leak into the timings and repeat passes.
func programRun(name string, warmup, measure uint64) (func(sim.Config) (sim.Result, time.Duration, error), error) {
	prof, ok := trace.ProfileByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown profile %q", name)
	}
	prog, err := trace.BuildProgram(prof)
	if err != nil {
		return nil, fmt.Errorf("building %s: %v", name, err)
	}
	return func(cfg sim.Config) (res sim.Result, dur time.Duration, err error) {
		cfg.WarmupInsts, cfg.MeasureInsts = warmup, measure
		dur = timed(func() {
			src := trace.NewLimit(trace.NewWalker(prog), int(warmup+measure)+200_000)
			res, err = sim.Run(cfg, src, prog, name)
		})
		return res, dur, err
	}, nil
}
