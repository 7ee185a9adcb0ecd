package sweepd

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"ucp/internal/sim"
	"ucp/internal/trace"
)

// submitSeed is a valid one-job submit body in the given protocol: a
// 4-segment full-detail job, with extra spliced into the job object
// (for wire fields this server does not know).
func submitSeed(t testing.TB, protocol, extra string) []byte {
	t.Helper()
	cfg := sim.Baseline()
	body, err := json.Marshal(SubmitRequest{
		Protocol: protocol,
		Model:    sim.ModelVersion,
		Jobs: []JobSpec{{Config: cfg, Profile: trace.QuickProfiles()[0],
			Warmup: 1000, Measure: 1000, Segments: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Replace(body, []byte(`"segments":4`), []byte(`"segments":4`+extra), 1)
}

// parentBoundary is the per-job boundary-warm override sweepd-4 clients
// sent, which this protocol no longer carries.
const parentBoundary = `,"boundary":{"DetailedInsts":6000}`

// TestDecodeSubmitRejectsParentBoundary: a sweepd-4 request carrying a
// boundary override is refused outright by the protocol stamp. The
// decoder ignores unknown fields, so without the bump the override
// would be dropped and the job run under the default warm unnoticed.
func TestDecodeSubmitRejectsParentBoundary(t *testing.T) {
	_, _, _, err := decodeSubmit(bytes.NewReader(submitSeed(t, "sweepd-4", parentBoundary)))
	if err == nil || !strings.Contains(err.Error(), "protocol mismatch") {
		t.Fatalf("sweepd-4 request with a boundary override: err = %v, want a protocol mismatch", err)
	}
	if _, _, ids, err := decodeSubmit(bytes.NewReader(submitSeed(t, ProtocolVersion, ""))); err != nil || len(ids) != 1 {
		t.Fatalf("current request: ids %v, err %v", ids, err)
	}
}

// FuzzDecodeSubmit drives arbitrary bytes through the submit path's
// decode and admission checks (protocol and model stamps,
// Config.Validate, Config.ValidateSegments, runq.Key): every input must
// end in an error or in one key per job, never a panic.
func FuzzDecodeSubmit(f *testing.F) {
	f.Add(submitSeed(f, ProtocolVersion, ""))
	f.Add(submitSeed(f, ProtocolVersion, parentBoundary))
	f.Add(submitSeed(f, "sweepd-4", parentBoundary))
	f.Add([]byte(`{"protocol":"` + ProtocolVersion + `","model":"` + sim.ModelVersion + `","jobs":[{}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, jobs, ids, err := decodeSubmit(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(jobs) != len(req.Jobs) || len(ids) != len(req.Jobs) {
			t.Fatalf("%d specs admitted as %d jobs with %d keys", len(req.Jobs), len(jobs), len(ids))
		}
		for i, id := range ids {
			if len(id) != 64 {
				t.Fatalf("job %d: key %q is not a hex SHA-256", i, id)
			}
		}
	})
}

// TestDecodeSubmitValidatesJobBudgets: runq runs a job at its own
// Warmup/Measure, whatever the config's WarmupInsts/MeasureInsts say,
// so admission validates the config at the job's budgets.
func TestDecodeSubmitValidatesJobBudgets(t *testing.T) {
	decode := func(spec JobSpec) error {
		body, err := json.Marshal(SubmitRequest{Protocol: ProtocolVersion, Model: sim.ModelVersion, Jobs: []JobSpec{spec}})
		if err != nil {
			t.Fatal(err)
		}
		_, _, _, err = decodeSubmit(bytes.NewReader(body))
		return err
	}
	spec := JobSpec{Config: sim.Baseline(), Profile: trace.QuickProfiles()[0], Warmup: 1000, Measure: 1000}
	spec.Config.MeasureInsts = 0
	if err := decode(spec); err != nil {
		t.Errorf("config without its own budget rejected: %v", err)
	}
	spec.Config.MeasureInsts = 1_000_000
	spec.Config.Sampling = sim.ConservativeSampling()
	if err := decode(spec); err == nil || !strings.Contains(err.Error(), "exceeds MeasureInsts 1000") {
		t.Errorf("sampling period longer than the job's measured budget: err = %v", err)
	}
}
