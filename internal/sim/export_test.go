package sim

import (
	"ucp/internal/core"
	"ucp/internal/trace"
)

// RestoreWarm exposes restoreWarm to the external ckpt tests, which
// feed it re-sealed blobs.
func (m *Machine) RestoreWarm(blob []byte) (skipped, ffTotal uint64, err error) {
	return m.restoreWarm(blob)
}

// WarmedMachine builds a machine over src and fast-forwards it to pos
// under warm's horizons, returning its position accounting.
func WarmedMachine(cfg Config, src trace.Source, code core.CodeInfo, pos uint64, warm BoundaryWarm) (m *Machine, skipped, ffTotal uint64, err error) {
	m = NewMachine(cfg, src, code)
	err = m.fastForward(pos, warm.FFInsts, warm.CacheInsts, warm.BPInsts, &skipped, &ffTotal)
	return m, skipped, ffTotal, err
}

// CaptureWarm exposes captureWarm to the capture benchmark.
func (m *Machine) CaptureWarm(skipped, ffTotal uint64, size int) []byte {
	return m.captureWarm(skipped, ffTotal, size)
}
