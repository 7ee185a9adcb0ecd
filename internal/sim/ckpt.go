package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"ucp/internal/backend"
	"ucp/internal/ckpt"
	"ucp/internal/core"
	"ucp/internal/frontend"
	"ucp/internal/trace"
)

// This file connects the sampled controller to internal/ckpt: the end
// state of the initial fast-forward (the WarmupInsts region, which a
// config sweep repeats per variant even though most variants share it)
// is captured once per warm key and restored everywhere else. The warm
// key hashes exactly the inputs the fast-forward depends on — trace
// identity, sampling warming geometry, and the config subset the
// functional path touches — so two configs that differ only in
// measurement-phase parameters (measurement length, backend sizing, a
// UCP walk threshold) share one checkpoint, and restored runs are
// byte-identical to cold ones.

// WarmCheckpoints attaches a checkpoint store to a run. TraceID must
// identify the instruction stream exactly: generated traces use the
// profile identity, file traces the trace digest (trace.Arena.ID).
type WarmCheckpoints struct {
	Store   *ckpt.Store
	TraceID string
}

// WarmKeySchema versions the warm-checkpoint key derivation itself.
// Bump it when the normalization below changes, so old on-disk
// checkpoints become unreachable rather than wrongly shared. Exported
// so the cmd binaries' -version output can stamp it (debugging
// checkpoint compatibility across sweepd servers and clients).
const WarmKeySchema = "ucp-ckpt-1"

// warmConfig strips cfg down to the fields the initial fast-forward can
// observe. Everything zeroed here is provably untouched on the
// functional-warm path (frontend/functional.go, backend/functional.go,
// core/functional.go, cache/warm.go):
//
//   - Name, MeasureInsts: labeling and measurement length.
//   - Frontend: FTQ/queue/width sizing — the fetch engine never runs.
//   - Backend: ROB/port sizing — functional commit only counts.
//   - L1IPrefetcher, MRC: timing mechanisms, explicitly not driven.
//   - Sampling period geometry: only the warming horizons shape the
//     fast-forward; the per-window fields govern the measured region.
//
// The UCP config reduces to the alternate predictors that shadow-train
// during warming (AltBP, UseAltInd, AltInd) plus engine presence;
// walk-path parameters (Estimator, StopThreshold, queue sizing, ...)
// only matter once detailed windows start.
func warmConfig(cfg Config) Config {
	cfg.Name = ""
	cfg.MeasureInsts = 0
	cfg.Frontend = frontend.Config{}
	cfg.Backend = backend.Config{}
	cfg.L1IPrefetcher = ""
	cfg.MRC = nil
	cfg.Sampling.PeriodInsts = 0
	cfg.Sampling.DetailedInsts = 0
	cfg.Sampling.WarmInsts = 0
	// The adaptive stop rule only governs how many measured windows
	// run; the initial fast-forward is identical at every target, so
	// refinement probes at progressively tighter TargetCI all share one
	// warm checkpoint — that sharing is what makes autopilot refinement
	// rounds nearly free.
	cfg.Sampling.TargetCI = 0
	cfg.Sampling.MinWindows = 0
	cfg.Sampling.MaxWindows = 0
	if cfg.UCP != nil {
		cfg.UCP = &core.Config{
			AltBP:     cfg.UCP.AltBP,
			UseAltInd: cfg.UCP.UseAltInd,
			AltInd:    cfg.UCP.AltInd,
		}
	}
	return cfg
}

// WarmKey derives the content address of cfg's functional-warm
// checkpoint over the given trace. Keys are hex SHA-256, compatible
// with the store's sharded layout.
func WarmKey(cfg Config, traceID string) string {
	env := struct {
		Schema string
		Model  string
		Trace  string
		Config Config
	}{WarmKeySchema, ModelVersion, traceID, warmConfig(cfg)}
	b, err := json.Marshal(env)
	if err != nil {
		// Config is a plain data struct; Marshal cannot fail on it.
		panic("sim: warm key marshal: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// acquireWarmup is AcquireBoundary for the sampled controller's initial
// fast-forward: its boundary is the end of the warmup region, keyed by
// WarmKey.
func acquireWarmup(cfg Config, wc *WarmCheckpoints) Boundary {
	if wc == nil || wc.Store == nil || cfg.WarmupInsts == 0 {
		return Boundary{}
	}
	return acquire(wc.Store, WarmKey(cfg, wc.TraceID))
}

// captureWarm serializes the machine's functional-warm state at the end
// of the initial fast-forward: the stream position split (skipped vs
// functionally committed), the backend's commit counters, and every
// structure the warm path mutates. State not saved here is exactly the
// state the fast-forward never touches, which a freshly constructed
// machine already holds. size is the expected blob length (0: unknown;
// see ckpt.NewWriterSize) and changes no byte of the blob.
func (m *Machine) captureWarm(skipped, ffTotal uint64, size int) []byte {
	w := ckpt.NewWriterSize(size)
	w.Section("machine")
	w.Uvarint(skipped)
	w.Uvarint(ffTotal)
	w.Uvarint(m.cycle)
	w.Uvarint(m.be.Committed)
	w.Uvarint(m.be.LoadsIssued)
	w.Uvarint(m.be.StoreIssued)
	m.fe.SaveWarmState(w)
	w.Bool(m.ucp != nil)
	if m.ucp != nil {
		m.ucp.SaveWarmState(w)
	}
	return w.Seal()
}

// restoreWarm rebuilds the capture-point state on a freshly constructed
// machine: it replays the trace to the captured position (relearning
// LearnedCode through the observing wrapper on recorded traces — an
// arena cursor or generator fast path makes this a seek), then loads
// every serialized structure. The restored machine is bit-equal to one
// that ran the fast-forward itself, so all downstream results are
// byte-identical.
func (m *Machine) restoreWarm(blob []byte) (skipped, ffTotal uint64, err error) {
	r, err := ckpt.Open(blob)
	if err != nil {
		return 0, 0, err
	}
	r.Section("machine")
	skipped = r.Uvarint()
	ffTotal = r.Uvarint()
	cycle := r.Uvarint()
	committed := r.Uvarint()
	loads := r.Uvarint()
	stores := r.Uvarint()
	if err := r.Err(); err != nil {
		return 0, 0, err
	}
	// The blob is outside input: a sum that wraps, or a position past
	// MaxInt (which int() turns negative, and a negative skip returns
	// itself unchanged), would pass the replay check below without
	// advancing the stream.
	pos := skipped + committed
	if pos < skipped || pos > math.MaxInt {
		return 0, 0, fmt.Errorf("sim: checkpoint position %d+%d out of range", skipped, committed)
	}
	if got := uint64(trace.SkipN(m.src, int(pos))); got != pos {
		return 0, 0, fmt.Errorf("sim: trace ended replaying checkpoint position (%d of %d)", got, pos)
	}
	m.fe.LoadWarmState(r)
	hasUCP := r.Bool()
	if r.Err() == nil && hasUCP != (m.ucp != nil) {
		r.Failf("machine: checkpoint UCP presence %v, machine %v", hasUCP, m.ucp != nil)
	}
	if m.ucp != nil && r.Err() == nil {
		m.ucp.LoadWarmState(r)
	}
	if err := r.Close(); err != nil {
		return 0, 0, err
	}
	m.cycle = cycle
	m.be.Committed = committed
	m.be.LoadsIssued = loads
	m.be.StoreIssued = stores
	return skipped, ffTotal, nil
}
