package runq

import (
	"reflect"
	"testing"
	"time"

	"ucp/internal/trace"
)

// warmLog records every warming callback in order.
type warmLog []uint64

func (l *warmLog) WarmFetch(line uint64) { *l = append(*l, 1, line) }
func (l *warmLog) WarmMem(addr uint64)   { *l = append(*l, 2, addr) }
func (l *warmLog) WarmCond(pc uint64, taken bool) {
	t := uint64(0)
	if taken {
		t = 1
	}
	*l = append(*l, 3, pc, t)
}

// TestOverlapSource: while the arena builds, the first reader that
// starts with a warming skip from position zero skip-warms over its own
// walk, reporting exactly what a cursor would, and switches to an arena
// cursor at its position for anything else; every other reader — a
// second skip-warming one, or one that starts with a seek or a read —
// waits for the arena. All of them read the arena's stream.
func TestOverlapSource(t *testing.T) {
	prof, _ := trace.ProfileByName("crypto01")
	prog, err := trace.BuildProgram(prof)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 3*trace.ArenaIndexPeriod + 500
	walk := func() trace.Source { return trace.NewLimit(trace.NewWalker(prog), budget) }
	arena := trace.ArenaFromSource(walk(), budget)
	want := trace.Collect(arena.Cursor(), budget)
	var wantLog warmLog
	c := arena.Cursor()
	c.SkipWarm(3000, &wantLog)
	c.SkipWarm(4000, &wantLog)

	e := &arenaEntry{ready: make(chan struct{})}
	first := &overlapSource{e: e, walk: walk}
	var log warmLog
	first.SkipWarm(3000, &log)
	first.SkipWarm(4000, &log)
	if !first.streaming {
		t.Fatal("first skip-warming reader waited for the arena")
	}
	if !reflect.DeepEqual(log, wantLog) {
		t.Error("skip-warming over the walk reports differently from a cursor")
	}

	readers := []*overlapSource{first, {e: e, walk: walk}, {e: e, walk: walk}, {e: e, walk: walk}}
	skipped := []int{7000, 1000, 5000, 0}
	done := make(chan struct{})
	go func() {
		defer close(done)
		readers[0].Next()
		readers[1].SkipWarm(1000, &warmLog{})
		readers[2].Skip(5000)
		readers[3].Next()
	}()
	select {
	case <-done:
		t.Fatal("readers went on before the arena was built")
	case <-time.After(50 * time.Millisecond):
	}
	e.build(func() (*trace.Arena, error) { return arena, nil })
	<-done
	for i, r := range readers {
		if _, ok := r.src.(*trace.Cursor); !ok {
			t.Errorf("reader %d is not on an arena cursor", i)
		}
		from := skipped[i]
		if i != 1 && i != 2 {
			from++ // one Next already read
		}
		if got := trace.Collect(r, budget); !reflect.DeepEqual(got, want[from:]) {
			t.Errorf("reader %d: stream after %d instructions differs from the arena's", i, from)
		}
	}
}
