package main

import (
	"testing"

	"ucp/internal/trace"
)

// replayCounts are the op counts every *_ns replay metric divides by.
type replayCounts struct {
	conds, branches, lines, loads, regions, blobBytes int
}

// TestReplayOpCountsArePinned checks that component replay derives the
// same op streams from each workload's profile and seed on every run.
func TestReplayOpCountsArePinned(t *testing.T) {
	want := map[string]replayCounts{
		"full-compare":    {conds: 24475, branches: 35424, lines: 24710, loads: 40597, regions: 50202, blobBytes: 1897396},
		"sampled":         {conds: 24475, branches: 35424, lines: 24710, loads: 40597, regions: 50202, blobBytes: 1897396},
		"sweep":           {conds: 26605, branches: 37565, lines: 23857, loads: 42756, regions: 50535, blobBytes: 1658893},
		"window-parallel": {conds: 34216, branches: 41590, lines: 33266, loads: 34418, regions: 57550, blobBytes: 1444923},
	}
	for _, w := range workloads {
		prof, err := profileFor(w.profile, DefaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := trace.BuildProgram(prof)
		if err != nil {
			t.Fatal(err)
		}
		counts := func() replayCounts {
			o := newReplayOps(prog)
			return replayCounts{len(o.conds), len(o.branches), len(o.lines), len(o.loads), len(o.regions), 0}
		}
		got := counts()
		if again := counts(); again != got {
			t.Errorf("%s: op streams differ between derivations: %+v vs %+v", w.name, got, again)
		}
		in := &instance{w: w, jobs: w.jobs(prof)}
		r, err := newReplayOps(prog).replay(in.primary().Config)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		got.blobBytes = r.blobBytes
		if exp, ok := want[w.name]; !ok || exp != got {
			t.Errorf("%s: op counts %+v, pinned %+v", w.name, got, exp)
		}
	}
}
