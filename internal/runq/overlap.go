package runq

import (
	"ucp/internal/isa"
	"ucp/internal/trace"
)

// overlapSource is one stream of a time-parallel job whose shared arena
// may still be building. A reader whose first operation is a warming
// skip from position zero while the build still runs — the boundary
// sweep of a sweepable plan, or a cold span crossing its skip zone —
// takes its own generator walk, the stream the arena is encoding, for
// as long as it keeps skip-warming, instead of waiting for the build.
// Every other operation reads an arena cursor at the stream position
// reached so far, waiting for the build if it has to. Warming skips
// report only what the arena encodes (fetch lines, memory addresses,
// branch outcomes), and every materialized instruction comes from the
// arena, so results are byte-identical to reading the arena alone. At
// most one reader per arena takes the walk, so until the build is done
// it and the build are the only busy goroutines: the sequential warm no
// longer queues behind the sequential build.
type overlapSource struct {
	e    *arenaEntry
	walk func() trace.Source
	src  trace.Source // nil until first use
	// streaming: src is the walk, which serves warming skips only; pos
	// counts the instructions it has skipped.
	streaming bool
	pos       int
}

// cursor binds s to an arena cursor at its stream position, waiting for
// the build.
func (s *overlapSource) cursor() trace.Source {
	if s.src != nil && !s.streaming {
		return s.src
	}
	<-s.e.ready
	switch {
	case s.e.err != nil:
		// The build only fails on a program error, which the job has
		// already surfaced; the walk is the same stream.
		if !s.streaming {
			s.src = s.walk()
		}
	default:
		c := s.e.arena.Cursor()
		c.Skip(s.pos)
		s.src = c
	}
	s.streaming = false
	return s.src
}

// SkipWarm implements trace.WarmSkipper.
func (s *overlapSource) SkipWarm(n int, w trace.Warmer) int {
	if s.src == nil && !s.built() && s.e.streamed.CompareAndSwap(false, true) {
		s.src, s.streaming = s.walk(), true
	}
	if s.streaming {
		k := trace.SkipWarmN(s.src, n, w)
		s.pos += k
		return k
	}
	return trace.SkipWarmN(s.cursor(), n, w)
}

func (s *overlapSource) built() bool {
	select {
	case <-s.e.ready:
		return true
	default:
		return false
	}
}

// Next implements trace.Source.
func (s *overlapSource) Next() (isa.Inst, bool) { return s.cursor().Next() }

// Reset implements trace.Source.
func (s *overlapSource) Reset() { s.src, s.streaming, s.pos = nil, false, 0 }

// NextBatch implements trace.BatchSource (arena cursors and walks both
// batch).
func (s *overlapSource) NextBatch(dst []isa.Inst) int {
	return s.cursor().(trace.BatchSource).NextBatch(dst)
}

// Skip implements trace.Skipper: a seek, which the arena does in O(1).
func (s *overlapSource) Skip(n int) int { return trace.SkipN(s.cursor(), n) }
