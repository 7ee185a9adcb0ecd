package main

import (
	"fmt"

	"ucp/internal/bpred"
	"ucp/internal/btb"
	"ucp/internal/cache"
	"ucp/internal/ckpt"
	"ucp/internal/isa"
	"ucp/internal/sim"
	"ucp/internal/trace"
	"ucp/internal/uopcache"
)

// Component replay times single layers in isolation: op streams are
// drawn from the first replayInsts instructions of the workload's own
// program (so they follow its profile and seed), then fed through each
// component's public API. The op counts are a pure function of the
// program, so every *_ns metric divides the same work on every run
// (replay_test.go pins them).

const (
	replayInsts  = 200_000
	replayPasses = 5
)

// replayOps are the op streams, derived once per program.
type replayOps struct {
	insts    []isa.Inst
	conds    []isa.Inst // conditional branches
	branches []isa.Inst // every control-flow instruction
	lines    []uint64   // fetch-line crossings
	loads    []uint64   // load addresses
	regions  []region   // µ-op cache entry regions, in fetch order
}

// region is one run of instructions inside one µ-op cache entry.
type region struct {
	pc        uint64
	ops       uint8
	branches  uint8
	endsTaken bool
}

func newReplayOps(prog *trace.Program) *replayOps {
	o := &replayOps{insts: trace.Collect(trace.NewWalker(prog), replayInsts)}
	lastLine, lastRegion := ^uint64(0), ^uint64(0)
	for i := range o.insts {
		in := &o.insts[i]
		if la := in.LineAddr(); la != lastLine {
			o.lines = append(o.lines, la)
			lastLine = la
		}
		if r := uopcache.RegionOf(in.PC); r != lastRegion || o.regions[len(o.regions)-1].endsTaken {
			o.regions = append(o.regions, region{pc: in.PC})
			lastRegion = r
		}
		cur := &o.regions[len(o.regions)-1]
		cur.ops++
		if in.Class.IsBranch() {
			cur.branches++
			cur.endsTaken = in.Taken
			o.branches = append(o.branches, *in)
		}
		switch in.Class {
		case isa.CondBranch:
			o.conds = append(o.conds, *in)
		case isa.Load:
			o.loads = append(o.loads, in.MemAddr)
		}
	}
	return o
}

// replayResult holds the per-op host times and checkpoint sizes.
type replayResult struct {
	predictUpdateNs float64
	histPushNs      float64
	btbNs           float64
	cacheNs         float64
	uopNs           float64
	arenaDecodeNs   float64
	arenaSkipNs     float64
	blobBytes       int
	encodeNsPerKB   float64
	decodeNsPerKB   float64
}

// timePasses runs body replayPasses times and returns the median
// nanoseconds per op of one pass.
func timePasses(ops int, body func()) float64 {
	per := make([]float64, replayPasses)
	for i := range per {
		t0 := nowNs()
		body()
		per[i] = float64(nowNs()-t0) / float64(ops)
	}
	return median(per)
}

// components is one fresh set of the replayed structures, sized as the
// workload's primary configuration sizes them.
type components struct {
	tage *bpred.TageSCL
	btb  *btb.BTB
	mem  *cache.Hierarchy
	uop  *uopcache.UopCache
}

func newComponents(cfg sim.Config) *components {
	return &components{
		tage: bpred.NewTageSCL(cfg.Pred),
		btb:  btb.New(cfg.BTB),
		mem:  cache.NewHierarchy(cfg.Memory),
		uop:  uopcache.New(cfg.Uop),
	}
}

func (c *components) save() []byte {
	w := ckpt.NewWriter()
	c.tage.SaveState(w)
	c.btb.SaveState(w)
	c.mem.SaveState(w)
	c.uop.SaveState(w)
	return w.Seal()
}

func (c *components) load(blob []byte) error {
	if err := ckpt.Verify(blob); err != nil {
		return err
	}
	r, err := ckpt.Open(blob)
	if err != nil {
		return err
	}
	c.tage.LoadState(r)
	c.btb.LoadState(r)
	c.mem.LoadState(r)
	c.uop.LoadState(r)
	return r.Close()
}

// replay times every component over o with structures configured as
// cfg. It fails only if a checkpoint does not round-trip.
func (o *replayOps) replay(cfg sim.Config) (replayResult, error) {
	var r replayResult
	var c *components
	fresh := func() { c = newComponents(cfg) }

	fresh()
	r.predictUpdateNs = timePasses(len(o.conds), func() {
		var p bpred.Prediction
		for i := range o.conds {
			in := &o.conds[i]
			c.tage.PredictInto(&p, c.tage.Hist(), in.PC)
			c.tage.Update(in.PC, in.Taken, &p)
			c.tage.PushHistory(in.PC, in.Taken)
		}
	})
	h := c.tage.NewHist()
	r.histPushNs = timePasses(len(o.conds), func() {
		for i := range o.conds {
			h.Push(o.conds[i].PC, o.conds[i].Taken)
		}
	})
	r.btbNs = timePasses(len(o.branches), func() {
		for i := range o.branches {
			in := &o.branches[i]
			if _, _, hit := c.btb.Lookup(in.PC); !hit && in.Taken {
				c.btb.Insert(in.PC, in.Target, btb.KindOf(in.Class))
			}
		}
	})
	now := uint64(0)
	r.cacheNs = timePasses(len(o.lines)+len(o.loads), func() {
		for _, la := range o.lines {
			now = c.mem.FetchInst(la, now) + 1
		}
		for _, a := range o.loads {
			now = c.mem.Load(a, now) + 1
		}
	})
	r.uopNs = timePasses(len(o.regions), func() {
		for _, g := range o.regions {
			if _, hit := c.uop.Lookup(g.pc); !hit {
				c.uop.Insert(g.pc, g.ops, g.branches, g.endsTaken, false)
			}
		}
	})

	// The warmed structures checkpoint: encode is SaveState→Seal,
	// decode Verify→Open→LoadState into fresh structures.
	warm := c
	var blob []byte
	encNs := timePasses(1, func() { blob = warm.save() })
	r.blobBytes = len(blob)
	if again := warm.save(); string(again) != string(blob) {
		return r, fmt.Errorf("checkpoint replay: encoding the same state twice gave different bytes")
	}
	dec := make([]float64, replayPasses)
	for i := range dec {
		fresh() // construction is not part of decoding
		t0 := nowNs()
		if err := c.load(blob); err != nil {
			return r, fmt.Errorf("checkpoint replay: %w", err)
		}
		dec[i] = float64(nowNs() - t0)
	}
	decNs := median(dec)
	if again := c.save(); string(again) != string(blob) {
		return r, fmt.Errorf("checkpoint replay: restored state re-encodes to different bytes")
	}
	kb := float64(len(blob)) / 1024
	r.encodeNsPerKB = encNs / kb
	r.decodeNsPerKB = decNs / kb

	arena := trace.NewArena(o.insts)
	buf := make([]isa.Inst, 128)
	r.arenaDecodeNs = timePasses(len(o.insts), func() {
		cur := arena.Cursor()
		for cur.NextBatch(buf) > 0 {
		}
	})
	r.arenaSkipNs = timePasses(len(o.insts), func() {
		arena.Cursor().SkipWarm(len(o.insts), nopWarmer{})
	})
	return r, nil
}

// nopWarmer receives a warming skip's callbacks and does nothing, so
// arena_skip_ns is the cursor's own decode-and-report cost.
type nopWarmer struct{}

func (nopWarmer) WarmFetch(uint64)      {}
func (nopWarmer) WarmMem(uint64)        {}
func (nopWarmer) WarmCond(uint64, bool) {}
