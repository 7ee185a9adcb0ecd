package runq

import (
	"testing"

	"ucp/internal/core"
	"ucp/internal/sim"
	"ucp/internal/trace"
)

// TestKeysPinned pins the cache keys of one job in each execution mode,
// so that a result cache written before a change to the key's inputs
// (Job fields, keyPayload, the time-parallel normalization) still hits
// after it. A failure here means every existing -cache-dir and every
// sweepd job ID silently went cold; bump SchemaVersion on purpose
// instead.
func TestKeysPinned(t *testing.T) {
	prof, ok := trace.ProfileByName("crypto01")
	if !ok {
		t.Fatal("no crypto01 profile")
	}
	full := sim.WithUCP(core.DefaultConfig())
	sampled := full
	sampled.Sampling = sim.ConservativeSampling()
	for _, c := range []struct {
		name string
		job  Job
		want string
	}{
		{"serial", Job{Config: full, Profile: prof, Warmup: 800_000, Measure: 700_000},
			"a597a094d3827eae27ccd756f925e600125a6e3d26c46e6d9859c060e05d708e"},
		{"segmented", Job{Config: full, Profile: prof, Warmup: 800_000, Measure: 700_000, Segments: 4},
			"4eeb97fecdc59213b73f951119f245116c4b59bee8fa8f3caf207cc66f1f20ed"},
		{"sampled", Job{Config: sampled, Profile: prof, Warmup: 400_000, Measure: 4_000_000},
			"43e305ed6ece6672d233ee46af6d7305a52758daa631f565dd41e008fbd133e9"},
		{"window-parallel", Job{Config: sampled, Profile: prof, Warmup: 400_000, Measure: 4_000_000, Segments: 2},
			"7c9c1c824d02bbd09898453811d26db08504671b6c06fa7931f58a2baf2cb9c5"},
	} {
		got, err := Key(c.job)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s key = %s, want %s", c.name, got, c.want)
		}
	}
}
