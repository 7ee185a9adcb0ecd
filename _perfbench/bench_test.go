package main

import (
	"bytes"
	"strings"
	"testing"

	"ucp/internal/runq"
	"ucp/internal/sim"
	"ucp/internal/trace"
)

// TestFailureAccounting plants a wrong pin and an erroring job: both
// must count as failed on every repetition and be printed, while the
// run itself completes and reports its metrics.
func TestFailureAccounting(t *testing.T) {
	fc, err := workloadByName("full-compare")
	if err != nil {
		t.Fatal(err)
	}
	w := shrunk(fc, 20_000, 50_000)
	jobs := w.jobs
	w.jobs = func(p trace.Profile) []runq.Job {
		js := jobs(p)
		broken := js[0]
		broken.Config.Name = "broken"
		broken.Config.RASEntries = 0 // rejected by sim.Config.Validate
		return append(js, broken)
	}

	in, err := w.setup(DefaultSeed, false)
	if err != nil {
		t.Fatal(err)
	}
	pins := workloadPins{Seed: DefaultSeed, Jobs: map[string]jobPin{}}
	for _, o := range in.run() {
		if o.err == nil {
			pins.Jobs[o.job] = pinOf(o.res)
		}
	}
	wrong := pins.Jobs["UCP"]
	wrong.Cycles++
	pins.Jobs["UCP"] = wrong

	var log bytes.Buffer
	b := &bench{w: w, seed: DefaultSeed, pins: pins, log: &log}
	m, err := b.endToEnd(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if b.attempted != 3*minReps || b.failed != 2*minReps {
		t.Errorf("attempted %d failed %d, want %d and %d", b.attempted, b.failed, 3*minReps, 2*minReps)
	}
	for _, job := range []string{"full-compare/UCP", "full-compare/broken"} {
		if !strings.Contains(log.String(), "FAIL "+job) {
			t.Errorf("log does not name failed job %s:\n%s", job, log.String())
		}
	}
	if strings.Contains(log.String(), "FAIL full-compare/baseline") {
		t.Errorf("correctly pinned job reported as failed:\n%s", log.String())
	}
	if m["wall_s"].Value <= 0 || m["setup_s"].Value <= 0 {
		t.Errorf("run did not report its metrics: %+v", m)
	}
}

// TestPinCheckAtOtherSeeds checks that away from the pinned seed only
// the seed-independent counts are compared.
func TestPinCheckAtOtherSeeds(t *testing.T) {
	pins := workloadPins{Jobs: map[string]jobPin{"j": {Insts: 80_000, Cycles: 1, Windows: 16, Digest: "x"}}}
	o := outcome{job: "j"}
	o.res.Insts, o.res.Cycles = 80_000+instSlack(16), 7
	if err := pins.check(o, false); err == nil {
		t.Error("a result without the pinned window count passed")
	}
	o.res.Sampled = &sim.SampledStats{Windows: 16}
	if err := pins.check(o, false); err != nil {
		t.Errorf("seed-dependent fields were checked at another seed: %v", err)
	}
	if err := pins.check(o, true); err == nil {
		t.Error("a different outcome passed at the pinned seed")
	}
	o.res.Insts++
	if err := pins.check(o, false); err == nil {
		t.Error("an instruction count beyond the commit-width slack passed")
	}
}
