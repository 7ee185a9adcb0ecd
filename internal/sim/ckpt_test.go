package sim_test

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"testing"

	"ucp/internal/backend"
	"ucp/internal/bpred"
	"ucp/internal/ckpt"
	"ucp/internal/core"
	"ucp/internal/prefetch"
	"ucp/internal/sim"
	"ucp/internal/trace"
)

// ckptConfig is a sampled configuration small enough for unit tests but
// with every warming tier engaged, so a checkpoint carries non-trivial
// state through all of them.
func ckptConfig(withUCP bool) sim.Config {
	cfg := sim.Baseline()
	if withUCP {
		cfg = sim.WithUCP(core.DefaultConfig())
	}
	cfg.WarmupInsts = 50_000
	cfg.MeasureInsts = 100_000
	cfg.Sampling = quickSampling()
	return cfg
}

// ckptSource builds a fresh generated source for one run. code is nil
// for UCP configs so the restore path exercises the observing wrapper
// (LearnedCode must be relearned during position replay).
func ckptSource(t *testing.T, cfg sim.Config, withUCP bool) (trace.Source, core.CodeInfo) {
	t.Helper()
	prof, ok := trace.ProfileByName("srv203")
	if !ok {
		t.Fatal("profile srv203 missing")
	}
	prog, err := trace.BuildProgram(prof)
	if err != nil {
		t.Fatalf("building program: %v", err)
	}
	budget := int(cfg.WarmupInsts+cfg.MeasureInsts) + 200_000
	src := trace.NewLimit(trace.NewWalker(prog), budget)
	if withUCP {
		return src, nil
	}
	return src, prog
}

// TestCkptRestoredMatchesCold pins the central reuse guarantee: a run
// that restores the warmup fast-forward from a checkpoint produces a
// determinism digest byte-identical to a run that pays it, for both the
// baseline machine and a UCP machine on the learned-code path.
func TestCkptRestoredMatchesCold(t *testing.T) {
	for _, withUCP := range []bool{false, true} {
		cfg := ckptConfig(withUCP)
		run := func(wc *sim.WarmCheckpoints) string {
			src, code := ckptSource(t, cfg, withUCP)
			res, err := sim.RunHooked(cfg, src, code, "srv203", wc, nil)
			if err != nil {
				t.Fatalf("ucp=%v: run failed: %v", withUCP, err)
			}
			return res.DeterminismDigest()
		}
		cold := run(nil)
		store := ckpt.NewStore("")
		wc := &sim.WarmCheckpoints{Store: store, TraceID: "srv203-test"}
		leader := run(wc)
		if store.Len() != 1 {
			t.Fatalf("ucp=%v: store holds %d checkpoints, want 1", withUCP, store.Len())
		}
		restored := run(wc)
		if leader != cold {
			t.Errorf("ucp=%v: leader (capturing) digest differs from cold run", withUCP)
		}
		if restored != cold {
			t.Errorf("ucp=%v: restored digest differs from cold run:\n%s\n---\n%s", withUCP, restored, cold)
		}
	}
}

// TestCkptDiskRoundTrip pins that a checkpoint persisted by one store
// restores identically through a second store on the same directory —
// the cross-process sweep case.
func TestCkptDiskRoundTrip(t *testing.T) {
	cfg := ckptConfig(true)
	dir := t.TempDir()
	run := func(store *ckpt.Store) string {
		src, code := ckptSource(t, cfg, true)
		res, err := sim.RunHooked(cfg, src, code, "srv203",
			&sim.WarmCheckpoints{Store: store, TraceID: "srv203-test"}, nil)
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
		return res.DeterminismDigest()
	}
	first := run(ckpt.NewStore(dir))
	second := ckpt.NewStore(dir)
	if got := run(second); got != first {
		t.Errorf("disk-restored digest differs from capturing run")
	}
	if second.Len() != 1 {
		t.Errorf("second store memoized %d checkpoints, want 1 (disk hit)", second.Len())
	}
}

// TestWarmKeyNormalization pins which config fields share a warm key.
// Measurement-phase parameters must not split keys (that is the whole
// point of the reuse), and anything the fast-forward can observe must.
func TestWarmKeyNormalization(t *testing.T) {
	base := ckptConfig(true)
	key := sim.WarmKey(base, "tr")

	shared := map[string]func(*sim.Config){
		"Name":              func(c *sim.Config) { c.Name = "other" },
		"MeasureInsts":      func(c *sim.Config) { c.MeasureInsts *= 2 },
		"Backend":           func(c *sim.Config) { c.Backend = backend.Config{ROB: 1} },
		"L1IPrefetcher":     func(c *sim.Config) { c.L1IPrefetcher = "fnlmma" },
		"MRC":               func(c *sim.Config) { c.MRC = &prefetch.MRCConfig{} },
		"UCP.StopThreshold": func(c *sim.Config) { u := *c.UCP; u.StopThreshold++; c.UCP = &u },
		"UCP.Estimator":     func(c *sim.Config) { u := *c.UCP; u.Estimator = bpred.EstimatorTageConf; c.UCP = &u },
		"Sampling.Period":   func(c *sim.Config) { c.Sampling.PeriodInsts *= 2 },
	}
	for name, mut := range shared {
		c := base
		mut(&c)
		if sim.WarmKey(c, "tr") != key {
			t.Errorf("changing %s split the warm key; the fast-forward cannot observe it", name)
		}
	}

	split := map[string]func(*sim.Config){
		"Pred":                 func(c *sim.Config) { c.Pred = bpred.Config8KB() },
		"WarmupInsts":          func(c *sim.Config) { c.WarmupInsts++ },
		"Sampling.FFWarmInsts": func(c *sim.Config) { c.Sampling.FFWarmInsts *= 2 },
		"UCP presence":         func(c *sim.Config) { c.UCP = nil },
		"UCP.AltBP":            func(c *sim.Config) { u := *c.UCP; u.AltBP = bpred.Config64KB(); c.UCP = &u },
		"InclusiveUop":         func(c *sim.Config) { c.InclusiveUop = true },
	}
	for name, mut := range split {
		c := base
		mut(&c)
		if sim.WarmKey(c, "tr") == key {
			t.Errorf("changing %s kept the warm key; the fast-forward observes it", name)
		}
	}
	if sim.WarmKey(base, "other-trace") == key {
		t.Error("different trace IDs share a warm key")
	}
}

// TestCkptForeignBlobRejected plants a structurally valid checkpoint
// captured under one machine geometry beneath another geometry's key
// (simulating a key-derivation bug or a tampered cache directory) and
// pins that the restore fails loudly instead of loading skewed state.
func TestCkptForeignBlobRejected(t *testing.T) {
	cfgA := ckptConfig(false)
	store := ckpt.NewStore("")
	wcA := &sim.WarmCheckpoints{Store: store, TraceID: "srv203-test"}
	src, code := ckptSource(t, cfgA, false)
	if _, err := sim.RunHooked(cfgA, src, code, "srv203", wcA, nil); err != nil {
		t.Fatalf("capturing run failed: %v", err)
	}
	blobA, hit, _ := store.Acquire(sim.WarmKey(cfgA, wcA.TraceID))
	if !hit {
		t.Fatal("capturing run published nothing")
	}

	// A different predictor geometry has differently sized tables, so
	// loading blobA must fail the length checks.
	cfgB := ckptConfig(false)
	cfgB.Pred = bpred.Config8KB()
	keyB := sim.WarmKey(cfgB, wcA.TraceID)
	_, hit, release := store.Acquire(keyB)
	if hit {
		t.Fatal("foreign key unexpectedly present")
	}
	release(blobA)

	src, code = ckptSource(t, cfgB, false)
	if _, err := sim.RunHooked(cfgB, src, code, "srv203", wcA, nil); err == nil {
		t.Fatal("restore from a foreign-geometry checkpoint succeeded; want geometry error")
	}
}

// capturedPayload runs cfg once with a checkpoint store and returns the
// program and the payload of the captured warm blob: the bytes between
// the envelope header (magic + version) and the trailing digest.
func capturedPayload(t testing.TB, cfg sim.Config) (*trace.Program, []byte) {
	t.Helper()
	prof, _ := trace.ProfileByName("srv203")
	prog, err := trace.BuildProgram(prof)
	if err != nil {
		t.Fatalf("building program: %v", err)
	}
	store := ckpt.NewStore("")
	wc := &sim.WarmCheckpoints{Store: store, TraceID: "srv203-test"}
	src := trace.NewLimit(trace.NewWalker(prog), int(cfg.WarmupInsts+cfg.MeasureInsts)+200_000)
	if _, err := sim.RunHooked(cfg, src, prog, "srv203", wc, nil); err != nil {
		t.Fatalf("capturing run failed: %v", err)
	}
	blob, hit, _ := store.Acquire(sim.WarmKey(cfg, wc.TraceID))
	if !hit {
		t.Fatal("capturing run published nothing")
	}
	return prog, blob[len("UCPC")+4 : len(blob)-sha256.Size]
}

// reseal wraps payload in a fresh envelope exactly as ckpt.Writer.Seal
// does, so a mutated payload passes the digest check and reaches the
// decoder.
func reseal(payload []byte) []byte {
	w := ckpt.NewWriter()
	for _, b := range payload {
		w.Byte(b)
	}
	return w.Seal()
}

// splice returns a copy of payload with the del bytes at off replaced
// by patch.
func splice(payload []byte, off, del int, patch []byte) []byte {
	return append(append(payload[:off:off], patch...), payload[off+del:]...)
}

// skippedField locates the machine section's leading skipped count:
// its offset and encoded length.
func skippedField(payload []byte) (off, n int) {
	off = 1 + len("machine") // uvarint name length + name
	_, n = binary.Uvarint(payload[off:])
	return off, n
}

// withSkipped rewrites the machine section's skipped count.
func withSkipped(payload []byte, skipped uint64) []byte {
	off, n := skippedField(payload)
	return splice(payload, off, n, binary.AppendUvarint(nil, skipped))
}

// TestCkptRestoreRejectsWrappedPosition pins that a re-sealed blob whose
// replay position overflows — past MaxInt, or wrapping the uint64 sum —
// fails the restore instead of passing the replay check without
// advancing the stream. A bare Walker never runs out, so only the
// range check can catch it.
func TestCkptRestoreRejectsWrappedPosition(t *testing.T) {
	cfg := ckptConfig(false)
	prog, payload := capturedPayload(t, cfg)
	for name, skipped := range map[string]uint64{
		"past MaxInt": 1 << 63,
		"sum wraps":   math.MaxUint64,
	} {
		m := sim.NewMachine(cfg, trace.NewWalker(prog), prog)
		if _, _, err := m.RestoreWarm(reseal(withSkipped(payload, skipped))); err == nil {
			t.Errorf("%s: restore of skipped=%d succeeded; want a position error", name, skipped)
		}
	}
}

// FuzzRestoreWarm splices a fuzzed patch into the payload of a real
// captured UCP blob (replacing del bytes at off), re-seals it, and
// restores it over a budget-limited stream (the source every run
// uses). Every input must end in a return value — nil or an error —
// never a panic or an unbounded skip. Splicing keeps the fuzzed input a
// few bytes long, so the fuzzer mutates and minimizes the patch rather
// than the 1.5 MB payload.
func FuzzRestoreWarm(f *testing.F) {
	cfg := ckptConfig(true)
	prog, payload := capturedPayload(f, cfg)
	off, n := skippedField(payload)
	f.Add(uint32(0), uint32(0), []byte(nil))
	f.Add(uint32(off), uint32(n), binary.AppendUvarint(nil, 1<<63))
	f.Add(uint32(off), uint32(n), binary.AppendUvarint(nil, math.MaxUint64))
	budget := int(cfg.WarmupInsts+cfg.MeasureInsts) + 200_000
	f.Fuzz(func(t *testing.T, off, del uint32, patch []byte) {
		o := int(off % uint32(len(payload)+1))
		d := min(int(del), len(payload)-o)
		m := sim.NewMachine(cfg, trace.NewLimit(trace.NewWalker(prog), budget), prog)
		m.RestoreWarm(reseal(splice(payload, o, d, patch)))
	})
}
