package sim_test

import (
	"bytes"
	"reflect"
	"testing"

	"ucp/internal/ckpt"
	"ucp/internal/core"
	"ucp/internal/sim"
	"ucp/internal/trace"
)

// gatePlan is the window-parallel gate's span plan: crypto01 UCP,
// 400K warmup + 4M measured under the conservative sampling geometry
// with a 200K period (20 windows) and a 20K detailed warm, mapped onto
// full-detail spans the way internal/wpar maps it.
func gatePlan(t testing.TB) (sim.Config, []sim.SegmentSpec, sim.BoundaryWarm, *trace.Arena, *trace.Program) {
	t.Helper()
	cfg := sim.WithUCP(core.DefaultConfig())
	cfg.WarmupInsts, cfg.MeasureInsts = 400_000, 4_000_000
	cfg.Sampling = sim.ConservativeSampling()
	cfg.Sampling.PeriodInsts = 200_000
	cfg.Sampling.WarmInsts = 20_000
	specs, warm := cfg.SampleWindows(), cfg.Sampling.BoundaryWarm()
	cfg.Sampling = sim.SamplingConfig{}

	prof, _ := trace.ProfileByName("crypto01")
	prog, err := trace.BuildProgram(prof)
	if err != nil {
		t.Fatal(err)
	}
	end := specs[len(specs)-1].End
	return cfg, specs, warm, trace.ArenaFromSource(trace.NewWalker(prog), int(end)+200_000), prog
}

// segmentPlan is the time-parallel gate's span plan: crypto01 UCP,
// 800K warmup + 700K measured in 4 full-detail segments under the
// gate's conservative boundary warm (5K detailed, 50K functional,
// unbounded skip zone).
func segmentPlan(t testing.TB) (sim.Config, []sim.SegmentSpec, sim.BoundaryWarm, *trace.Arena, *trace.Program) {
	t.Helper()
	cfg := sim.WithUCP(core.DefaultConfig())
	cfg.WarmupInsts, cfg.MeasureInsts = 800_000, 700_000
	var specs []sim.SegmentSpec
	for i := 0; i < 4; i++ {
		start := uint64(800_000 + i*175_000)
		specs = append(specs, sim.SegmentSpec{Index: i, Start: start, End: start + 175_000})
	}
	prof, _ := trace.ProfileByName("crypto01")
	prog, err := trace.BuildProgram(prof)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, specs, sim.BoundaryWarm{DetailedInsts: 5_000, FFInsts: 50_000},
		trace.ArenaFromSource(trace.NewWalker(prog), 1_700_000), prog
}

// TestBoundarySweepExact is the sweep's byte-identity bar, on both gate
// plans: at every boundary, the functional-warm checkpoint a span
// publishes when it starts from the sweep — a restored zone-end
// checkpoint, or the sweep machine itself at the last boundary — equals
// the one a cold span publishes after fast-forwarding from position
// zero, byte for byte, and so do the span results. The
// sweep crosses the shared skip zone in one chunk per boundary; any
// state a chunk boundary perturbs (the fetch-line dedup is the one that
// needs carrying) shows up here as a byte difference. Under the race
// detector each plan is cut to its first spans (the last of them taking
// the machine), which still crosses every path: the cold references cost Σ p — 48.5M instructions of
// skip-warming over the full window plan.
func TestBoundarySweepExact(t *testing.T) {
	for _, plan := range []struct {
		name  string
		build func(testing.TB) (sim.Config, []sim.SegmentSpec, sim.BoundaryWarm, *trace.Arena, *trace.Program)
		spans int
		race  int
	}{{"windows", gatePlan, 20, 3}, {"segments", segmentPlan, 4, 2}} {
		t.Run(plan.name, func(t *testing.T) {
			cfg, specs, warm, arena, prog := plan.build(t)
			if len(specs) != plan.spans || !warm.Sweepable() {
				t.Fatalf("%d spans, sweepable %v; want %d sweepable spans", len(specs), warm.Sweepable(), plan.spans)
			}
			if raceEnabled {
				specs = specs[:plan.race]
			}
			checkSweepExact(t, cfg, specs, warm, arena, prog)
		})
	}
}

func checkSweepExact(t *testing.T, cfg sim.Config, specs []sim.SegmentSpec, warm sim.BoundaryWarm, arena *trace.Arena, prog *trace.Program) {
	const traceID = "test:crypto01"
	cold, swept := ckpt.NewStore(""), ckpt.NewStore("")
	newSource := func() trace.Source { return arena.Cursor() }
	sw, err := sim.NewBoundarySweep(cfg, newSource, prog, warm)
	if err != nil {
		t.Fatal(err)
	}
	stored := func(st *ckpt.Store, key string) []byte {
		blob, hit, release := st.Acquire(key)
		if !hit {
			release(nil)
			t.Fatalf("no checkpoint published under %s", key[:12])
		}
		return blob
	}
	for i, spec := range specs {
		b := sim.AcquireBoundary(cfg, &sim.WarmCheckpoints{Store: swept, TraceID: traceID}, spec, warm)
		b, err := sw.Advance(spec, b, i == len(specs)-1)
		if err != nil {
			t.Fatalf("span %d: sweep: %v", i, err)
		}
		got, err := sim.RunSegmentAt(cfg, newSource, prog, spec, warm, b)
		if err != nil {
			t.Fatalf("span %d: swept run: %v", i, err)
		}
		want, err := sim.RunSegmentAt(cfg, newSource, prog, spec, warm,
			sim.AcquireBoundary(cfg, &sim.WarmCheckpoints{Store: cold, TraceID: traceID}, spec, warm))
		if err != nil {
			t.Fatalf("span %d: cold run: %v", i, err)
		}
		key := sim.BoundaryKey(cfg, traceID, spec.Start, warm)
		if !bytes.Equal(stored(swept, key), stored(cold, key)) {
			t.Fatalf("span %d: functional-warm checkpoint through the sweep differs from the cold one", i)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("span %d: swept result differs from cold:\n%+v\n---\n%+v", i, got, want)
		}
	}
}

// BenchmarkCaptureWarm measures one boundary checkpoint capture of a
// warmed crypto01 UCP machine (≈1.4 MiB): cold grows the buffer from
// ckpt.NewWriter's 64 KiB start, as every capture did before size
// hints; hinted passes the previous capture's length, as the boundary
// sweep does. Compare B/op.
func BenchmarkCaptureWarm(b *testing.B) {
	cfg, specs, warm, arena, prog := gatePlan(b)
	m, skipped, ffTotal, err := sim.WarmedMachine(cfg, arena.Cursor(), prog, specs[0].Start, warm)
	if err != nil {
		b.Fatal(err)
	}
	size := len(m.CaptureWarm(skipped, ffTotal, 0))
	for _, c := range []struct {
		name string
		size int
	}{{"cold", 0}, {"hinted", size}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				m.CaptureWarm(skipped, ffTotal, c.size)
			}
		})
	}
}
