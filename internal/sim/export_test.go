package sim

// RestoreWarm exposes restoreWarm to the external ckpt tests, which
// feed it re-sealed blobs.
func (m *Machine) RestoreWarm(blob []byte) (skipped, ffTotal uint64, err error) {
	return m.restoreWarm(blob)
}
