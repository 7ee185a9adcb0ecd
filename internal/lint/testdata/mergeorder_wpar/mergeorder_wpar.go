// Package fixture exercises the mergeorder analyzer's wpar root: the
// importpath directive plants it in internal/wpar, the parallel
// executor's package, so merge-shaped methods here sit on the
// cross-worker combine path even without a call edge from runq or sim.
//
//ucplint:importpath ucp/internal/wpar
package fixture

// winAccum mimics a per-worker window accumulator that (incorrectly)
// folds a float IPC during the merge instead of deferring it to a
// window-ordered reduction.
type winAccum struct {
	insts  uint64
	cycles uint64
	ipc    float64
}

// Merge combines two per-worker accumulators.
func (a *winAccum) Merge(b *winAccum) {
	a.insts += b.insts
	a.cycles += b.cycles
	a.ipc += b.ipc // want "order-sensitive float accumulation in merge method Merge"
}

// cellUnion is the correct shape: a disjoint index union with no
// arithmetic at all, like the executor's per-index span slots.
type cellUnion struct{ cells []*winAccum }

// Merge folds b's cells into a; window sets are disjoint by construction.
func (a *cellUnion) Merge(b *cellUnion) {
	for i, c := range b.cells {
		if c != nil {
			a.cells[i] = c
		}
	}
}
