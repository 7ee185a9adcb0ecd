package trace

import (
	"fmt"

	"ucp/internal/isa"
	"ucp/internal/rng"
)

// This file implements the synthetic workload generator that substitutes
// for the proprietary CVP-1 datacenter traces (see DESIGN.md). A Profile
// describes the statistical shape of a workload; BuildProgram lowers it
// to a static code image (a CFG laid out at concrete addresses) and a
// Walker interprets that image to produce an endless, control-flow
// consistent dynamic instruction stream.
//
// The generator controls exactly the properties the paper's evaluation
// depends on:
//   - static code footprint (µ-op cache / L1I / BTB pressure),
//   - hot-vs-flat function reuse (stream length in the µ-op cache),
//   - the conditional-branch difficulty mix (biased, pattern, loop,
//     history-correlated, and genuinely random H2P branches),
//   - indirect-branch target behavior (ITTAGE-learnable or not),
//   - data working-set size and access patterns (backend load latency).

// CodeBase is the address of the first generated instruction.
const CodeBase uint64 = 0x10_0000

// Profile parameterizes a synthetic workload.
type Profile struct {
	// Name identifies the trace (e.g. "srv201").
	Name string
	// Seed makes the workload reproducible.
	Seed uint64

	// Funcs is the number of generated functions; AvgFuncInsts is the
	// mean static size of each. Their product approximates the code
	// footprint in instructions (×4 bytes).
	Funcs        int
	AvgFuncInsts int
	// FlatFrac is the probability that the dispatcher picks a callee
	// uniformly instead of from a Zipf-hot distribution. High values
	// model flat datacenter profiles with huge instruction working sets.
	FlatFrac float64

	// Conditional branch difficulty mix; the four fractions need not sum
	// to one — the remainder is strongly biased branches.
	CondPatternFrac float64 // short repeating patterns (TAGE-easy)
	CondHistoryFrac float64 // correlated with recent global history
	CondRandomFrac  float64 // Bernoulli noise: the H2P population
	RandomTakenP    float64 // taken probability for random branches
	// HistMaskBitsMin/Max bound how many history bits a history-
	// correlated branch XORs together; more bits is harder to learn.
	HistMaskBitsMin, HistMaskBitsMax int

	// LoopTripMean is the mean loop trip count; FixedTripFrac is the
	// fraction of loops with a compile-time-constant trip count (these
	// are what the loop predictor captures).
	LoopTripMean  float64
	FixedTripFrac float64

	// IndirectFrac scales how much indirect control flow (switches and
	// indirect calls) the code contains. IndHistFrac is the fraction of
	// indirect sites whose target correlates with history (ITTAGE-easy).
	IndirectFrac float64
	IndHistFrac  float64

	// DataWSS is the data working-set size in bytes; StreamFrac is the
	// fraction of memory instructions that stream sequentially.
	DataWSS    uint64
	StreamFrac float64

	// LoadFrac and StoreFrac set the memory instruction mix within
	// straight-line code.
	LoadFrac, StoreFrac float64
}

// FootprintBytes returns the approximate static code footprint.
func (p *Profile) FootprintBytes() uint64 {
	return uint64(p.Funcs*p.AvgFuncInsts) * isa.InstBytes
}

type behaviorKind uint8

const (
	bBiased behaviorKind = iota
	bPattern
	bHistory
	bRandom
	bLoop
	bIndirect
)

// behavior is the build-time description of a branch site's dynamic
// policy. Runtime state lives in the Walker so Programs are immutable
// and shareable.
type behavior struct {
	kind behaviorKind
	// p is the taken probability for biased/random branches.
	p float64
	// pattern/period drive bPattern.
	pattern uint64
	period  uint8
	// histMask selects the global-history bits whose parity decides a
	// bHistory branch; histPhase inverts the outcome.
	histMask  uint64
	histPhase bool
	// Loop trip behavior: tripFixed > 0 means a constant trip count;
	// otherwise tripRange > 0 samples uniformly in
	// [tripBase, tripBase+tripRange) (low-variance, partially
	// predictable), and failing both, trips are geometric with mean
	// tripMean (high-variance, an organic H2P source).
	tripFixed int32
	tripBase  int32
	tripRange int32
	tripMean  float64
	// cases are indirect targets; caseHist selects history-correlated
	// target choice, caseFlat the probability of a uniform (vs Zipf)
	// random pick.
	cases    []uint64
	caseHist bool
	caseFlat float64
}

type memMode uint8

const (
	memNone memMode = iota
	memStream
	memRandom
	memStack
)

// StaticInst is one instruction of the generated code image.
type StaticInst struct {
	Class  isa.Class
	Target uint64 // direct branch/call target
	behav  int32  // behavior index, -1 if none

	mode   memMode
	base   uint64
	span   uint64
	stride uint32

	Dst, Src1, Src2 uint8
}

// Program is an immutable generated code image.
type Program struct {
	Profile Profile
	Code    []StaticInst
	// Entry is the dispatcher address where execution starts.
	Entry     uint64
	behaviors []behavior
}

// StaticInsts returns the number of generated static instructions.
func (p *Program) StaticInsts() int { return len(p.Code) }

// asm accumulates code during program construction.
type asm struct {
	prof      *Profile
	r         *rng.Rand
	code      []StaticInst
	behaviors []behavior
	heapBase  uint64
	regions   int
	regionSz  uint64
}

func (a *asm) pc() uint64 { return CodeBase + uint64(len(a.code))*isa.InstBytes }

func (a *asm) emit(si StaticInst) int {
	a.code = append(a.code, si)
	return len(a.code) - 1
}

func (a *asm) addBehavior(b behavior) int32 {
	a.behaviors = append(a.behaviors, b)
	return int32(len(a.behaviors) - 1)
}

// reg returns a random architectural register in [1, isa.RegCount).
func (a *asm) reg() uint8 { return uint8(1 + a.r.Intn(isa.RegCount-1)) }

// straight emits n non-branch instructions with the profile's class mix.
func (a *asm) straight(n int, fnStack uint64) {
	for i := 0; i < n; i++ {
		si := StaticInst{behav: -1, Dst: a.reg(), Src1: a.reg(), Src2: a.reg()}
		u := a.r.Float64()
		switch {
		case u < a.prof.LoadFrac:
			si.Class = isa.Load
			a.assignMem(&si, fnStack)
		case u < a.prof.LoadFrac+a.prof.StoreFrac:
			si.Class = isa.Store
			si.Dst = 0
			a.assignMem(&si, fnStack)
		case u < a.prof.LoadFrac+a.prof.StoreFrac+0.04:
			si.Class = isa.Mul
		case u < a.prof.LoadFrac+a.prof.StoreFrac+0.08:
			si.Class = isa.FP
		default:
			si.Class = isa.ALU
		}
		a.emit(si)
	}
}

func (a *asm) assignMem(si *StaticInst, fnStack uint64) {
	u := a.r.Float64()
	switch {
	case u < 0.25:
		// Stack accesses: tiny hot region, nearly always cache hits.
		si.mode = memStack
		si.base = fnStack
		si.span = 256
	case u < 0.25+a.prof.StreamFrac:
		si.mode = memStream
		si.base = a.heapBase + uint64(a.r.Intn(a.regions))*a.regionSz
		si.span = a.regionSz
		si.stride = uint32(8 << a.r.Intn(3)) // 8/16/32-byte strides
	default:
		si.mode = memRandom
		si.base = a.heapBase + uint64(a.r.Intn(a.regions))*a.regionSz
		si.span = a.regionSz
	}
}

// condBehavior samples a conditional branch policy from the profile mix.
func (a *asm) condBehavior() behavior {
	p := a.prof
	u := a.r.Float64()
	switch {
	case u < p.CondRandomFrac:
		// The H2P population: irreducibly noisy outcomes. RandomTakenP
		// is the site's target miss level (the best any predictor can
		// do); the taken bias lands on either side of 0.5.
		level := p.RandomTakenP + (a.r.Float64()-0.5)*0.2
		if level < 0.05 {
			level = 0.05
		}
		if level > 0.5 {
			level = 0.5
		}
		pr := level
		if a.r.Bool(0.5) {
			pr = 1 - level
		}
		return behavior{kind: bRandom, p: pr}
	case u < p.CondRandomFrac+p.CondPatternFrac:
		// Short-period execution-count patterns. Their learnability
		// depends on how stable the surrounding history context is, so
		// they naturally populate the medium-confidence classes.
		period := uint8(2 + a.r.Intn(2))
		return behavior{
			kind:    bPattern,
			pattern: a.r.Uint64(),
			period:  period,
		}
	case u < p.CondRandomFrac+p.CondPatternFrac+p.CondHistoryFrac:
		// Outcome = parity of `bits` recent global-history bits chosen
		// within a window that grows with bits: small selections are
		// TAGE-learnable, larger ones are progressively harder (they
		// populate the weak-counter / AltBank confidence classes).
		bits := p.HistMaskBitsMin
		if p.HistMaskBitsMax > bits {
			bits += a.r.Intn(p.HistMaskBitsMax - p.HistMaskBitsMin + 1)
		}
		if bits < 1 {
			bits = 1
		}
		window := 2 + 2*bits
		var mask uint64
		for i := 0; i < bits; i++ {
			mask |= 1 << uint(a.r.Intn(window))
		}
		return behavior{kind: bHistory, histMask: mask, histPhase: a.r.Bool(0.5)}
	default:
		// Strongly biased branches: error-check/guard style code that
		// almost always goes one way. The quartic skew keeps the mean
		// residual noise around 0.5%, as in well-predicted real code.
		n := a.r.Float64()
		pr := 0.001 + 0.02*n*n*n*n
		if a.r.Bool(0.5) {
			pr = 1 - pr
		}
		return behavior{kind: bBiased, p: pr}
	}
}

// buildBody emits roughly budget instructions of structured code and
// returns the number actually emitted. Calls are NOT emitted here — they
// are placed explicitly by BuildProgram so that the expected number of
// dynamic calls per function invocation stays below one (a subcritical
// call tree); otherwise execution gets trapped in enormous call trees and
// the footprint-cycling behavior of datacenter traces is lost. inLoop
// suppresses nested loops so loop bodies do not amplify unboundedly.
func (a *asm) buildBody(budget, depth int, fnStack uint64, inLoop bool) int {
	emitted := 0
	for emitted < budget {
		u := a.r.Float64()
		var construct int
		switch {
		case u < 0.38:
			construct = 0 // straight
		case u < 0.82:
			construct = 1 // if/else
		case u < 0.90:
			construct = 2 // loop
		case u < 0.90+0.10*a.prof.IndirectFrac*4:
			construct = 3 // switch
		default:
			construct = 0
		}
		if inLoop && construct == 2 {
			construct = 0
		}
		switch construct {
		case 0:
			n := 1 + a.r.Geometric(3)
			a.straight(n, fnStack)
			emitted += n
		case 1:
			emitted += a.buildIf(depth, fnStack, inLoop)
		case 2:
			emitted += a.buildLoop(depth, fnStack)
		case 3:
			emitted += a.buildSwitch(fnStack)
		}
	}
	return emitted
}

// buildIf lays out: cond-branch(to else), then-code, jump(end), else-code.
// The conditional branch taken direction goes to the else label.
func (a *asm) buildIf(depth int, fnStack uint64, inLoop bool) int {
	start := len(a.code)
	bi := a.addBehavior(a.condBehavior())
	condIdx := a.emit(StaticInst{Class: isa.CondBranch, behav: bi, Src1: a.reg()})
	thenN := 1 + a.r.Geometric(4)
	if depth < 3 && a.r.Bool(0.3) {
		a.buildBody(thenN, depth+1, fnStack, inLoop)
	} else {
		a.straight(thenN, fnStack)
	}
	jmpIdx := a.emit(StaticInst{Class: isa.DirectJump, behav: -1})
	a.code[condIdx].Target = a.pc()
	elseN := 1 + a.r.Geometric(3)
	a.straight(elseN, fnStack)
	a.code[jmpIdx].Target = a.pc()
	return len(a.code) - start
}

// buildLoop lays out a do-while loop: body, cond-branch(back to top).
// Taken means "iterate again".
func (a *asm) buildLoop(depth int, fnStack uint64) int {
	start := len(a.code)
	top := a.pc()
	bodyN := 2 + a.r.Geometric(4)
	if depth < 3 && a.r.Bool(0.35) {
		a.buildBody(bodyN, depth+1, fnStack, true)
	} else {
		a.straight(bodyN, fnStack)
	}
	b := behavior{kind: bLoop, tripMean: a.prof.LoopTripMean}
	switch {
	case a.r.Bool(a.prof.FixedTripFrac):
		b.tripFixed = int32(2 + a.r.Intn(int(a.prof.LoopTripMean*2)+1))
	case a.r.Bool(0.85):
		base := int32(a.prof.LoopTripMean) - 1
		if base < 2 {
			base = 2
		}
		b.tripBase, b.tripRange = base, 3
	}
	bi := a.addBehavior(b)
	a.emit(StaticInst{Class: isa.CondBranch, Target: top, behav: bi, Src1: a.reg()})
	return len(a.code) - start
}

// buildSwitch lays out an indirect jump over 2..6 cases.
func (a *asm) buildSwitch(fnStack uint64) int {
	start := len(a.code)
	n := 2 + a.r.Intn(5)
	bi := a.addBehavior(behavior{
		kind:     bIndirect,
		caseHist: a.r.Bool(a.prof.IndHistFrac),
	})
	a.emit(StaticInst{Class: isa.IndirectJump, behav: bi, Src1: a.reg()})
	var jmps []int
	cases := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		cases = append(cases, a.pc())
		a.straight(1+a.r.Geometric(3), fnStack)
		jmps = append(jmps, a.emit(StaticInst{Class: isa.DirectJump, behav: -1}))
	}
	end := a.pc()
	for _, j := range jmps {
		a.code[j].Target = end
	}
	a.behaviors[bi].cases = cases
	return len(a.code) - start
}

// buildCall emits either a direct call to one callee or an indirect call
// over a few callees.
func (a *asm) buildCall(callees []uint64) int {
	start := len(a.code)
	if a.r.Bool(a.prof.IndirectFrac) && len(callees) >= 2 {
		k := 2 + a.r.Intn(min(3, len(callees)-1))
		cs := make([]uint64, 0, k)
		for i := 0; i < k; i++ {
			cs = append(cs, callees[a.r.Intn(len(callees))])
		}
		bi := a.addBehavior(behavior{
			kind:     bIndirect,
			cases:    cs,
			caseHist: a.r.Bool(a.prof.IndHistFrac),
		})
		a.emit(StaticInst{Class: isa.IndirectCall, behav: bi, Src1: a.reg()})
	} else {
		t := callees[a.r.Zipf(len(callees))]
		a.emit(StaticInst{Class: isa.Call, Target: t, behav: -1})
	}
	return len(a.code) - start
}

// stackBase is where per-function stack frames live.
const stackBase uint64 = 1 << 40

// BuildProgram lowers a profile to a concrete code image.
func BuildProgram(prof Profile) (*Program, error) {
	if prof.Funcs < 1 || prof.AvgFuncInsts < 16 {
		return nil, fmt.Errorf("trace: profile %q needs Funcs>=1, AvgFuncInsts>=16", prof.Name)
	}
	r := rng.New(prof.Seed)
	a := &asm{prof: &prof, r: r, heapBase: 1 << 32}
	a.regionSz = 16 * 1024
	if prof.DataWSS < a.regionSz {
		a.regionSz = 4096
	}
	a.regions = int(prof.DataWSS / a.regionSz)
	if a.regions < 1 {
		a.regions = 1
	}

	// Build functions back to front so function i can call j > i,
	// keeping the call graph a DAG (no unbounded recursion).
	funcAddrs := make([]uint64, prof.Funcs)
	type pending struct {
		idx  int
		code []StaticInst
		behs []behavior
	}
	// We emit back-to-front into a temporary asm per function, then
	// concatenate front-to-back. Simpler: lay out functions in reverse
	// address order is wrong; instead do two passes — first compute
	// sizes, then emit. To stay single-pass, lay function N-1 first at
	// CodeBase and give lower-index functions higher addresses.
	for i := prof.Funcs - 1; i >= 0; i-- {
		funcAddrs[i] = a.pc()
		fnStack := stackBase + uint64(i)*4096
		// Callees are the next few functions (already emitted, since we
		// build back to front); a narrow fan-out keeps call trees local
		// so a dispatcher pick touches a small contiguous code cluster.
		callees := funcAddrs[i+1:]
		if len(callees) > 12 {
			callees = callees[:12]
		}
		budget := prof.AvgFuncInsts/2 + a.r.Intn(prof.AvgFuncInsts)
		// Call sites per function: 0 (45%), 1 (35%), or 2 (20%) —
		// expected 0.75 dynamic calls per invocation keeps call trees
		// finite (mean tree size 4 invocations).
		nCalls := 0
		switch u := a.r.Float64(); {
		case u < 0.45:
		case u < 0.80:
			nCalls = 1
		default:
			nCalls = 2
		}
		if len(callees) == 0 {
			nCalls = 0
		}
		a.straight(3+a.r.Intn(4), fnStack)
		seg := budget / (nCalls + 1)
		for s := 0; s <= nCalls; s++ {
			a.buildBody(seg, 0, fnStack, false)
			if s < nCalls {
				a.buildCall(callees)
			}
		}
		a.emit(StaticInst{Class: isa.Return, behav: -1})
	}

	// Dispatcher: an endless loop indirectly calling top-level functions.
	entry := a.pc()
	dispStack := stackBase + uint64(prof.Funcs)*4096
	a.straight(3, dispStack)
	bi := a.addBehavior(behavior{
		kind:     bIndirect,
		cases:    append([]uint64(nil), funcAddrs...),
		caseFlat: prof.FlatFrac,
	})
	a.emit(StaticInst{Class: isa.IndirectCall, behav: bi, Src1: a.reg()})
	a.straight(2, dispStack)
	a.emit(StaticInst{Class: isa.DirectJump, Target: entry, behav: -1})

	return &Program{
		Profile:   prof,
		Code:      a.code,
		Entry:     entry,
		behaviors: a.behaviors,
	}, nil
}

// branchState is the per-site runtime state owned by a Walker.
type branchState struct {
	idx   uint32
	trips int32
}

// Walker interprets a Program, producing an endless instruction stream.
// It implements Source (Next never returns ok=false; wrap in a Limit).
type Walker struct {
	prog   *Program
	r      *rng.Rand
	pc     uint64
	stack  []uint64
	ghist  uint64
	st     []branchState
	memCnt []uint32
}

// NewWalker returns a fresh interpreter over prog.
func NewWalker(prog *Program) *Walker {
	w := &Walker{prog: prog}
	w.Reset()
	return w
}

// Reset implements Source.
func (w *Walker) Reset() {
	w.r = rng.New(w.prog.Profile.Seed ^ 0xdeadbeefcafe)
	w.pc = w.prog.Entry
	w.stack = w.stack[:0]
	w.ghist = 0
	if w.st == nil {
		w.st = make([]branchState, len(w.prog.behaviors))
		w.memCnt = make([]uint32, len(w.prog.Code))
	} else {
		for i := range w.st {
			w.st[i] = branchState{}
		}
		for i := range w.memCnt {
			w.memCnt[i] = 0
		}
	}
}

// parity returns 1-bit parity of x.
func parity(x uint64) bool {
	x ^= x >> 32
	x ^= x >> 16
	x ^= x >> 8
	x ^= x >> 4
	x ^= x >> 2
	x ^= x >> 1
	return x&1 != 0
}

func mixHash(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// Next implements Source.
func (w *Walker) Next() (isa.Inst, bool) {
	idx := int((w.pc - CodeBase) / isa.InstBytes)
	si := &w.prog.Code[idx]
	in := isa.Inst{
		PC:    w.pc,
		Class: si.Class,
		Dst:   si.Dst,
		Src1:  si.Src1,
		Src2:  si.Src2,
	}
	switch si.Class {
	case isa.CondBranch:
		b := &w.prog.behaviors[si.behav]
		st := &w.st[si.behav]
		taken := w.evalCond(b, st)
		in.Taken = taken
		in.Target = si.Target
		w.ghist = w.ghist<<1 | b2u(taken)
	case isa.DirectJump:
		in.Taken = true
		in.Target = si.Target
	case isa.Call:
		in.Taken = true
		in.Target = si.Target
		w.stack = append(w.stack, w.pc+isa.InstBytes)
	case isa.IndirectJump, isa.IndirectCall:
		b := &w.prog.behaviors[si.behav]
		in.Taken = true
		in.Target = w.evalIndirect(b)
		if si.Class == isa.IndirectCall {
			w.stack = append(w.stack, w.pc+isa.InstBytes)
		}
	case isa.Return:
		in.Taken = true
		if n := len(w.stack); n > 0 {
			in.Target = w.stack[n-1]
			w.stack = w.stack[:n-1]
		} else {
			// Defensive: a return with an empty stack restarts the
			// dispatcher. Generated programs never hit this.
			in.Target = w.prog.Entry
		}
	case isa.Load, isa.Store:
		in.MemAddr = w.memAddr(si, idx)
	}
	w.pc = in.NextPC()
	return in, true
}

// NextBatch implements BatchSource. The stream is endless, so the whole
// of dst is always filled.
func (w *Walker) NextBatch(dst []isa.Inst) int {
	for i := range dst {
		dst[i], _ = w.Next()
	}
	return len(dst)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (w *Walker) evalCond(b *behavior, st *branchState) bool {
	switch b.kind {
	case bBiased, bRandom:
		return w.r.Bool(b.p)
	case bPattern:
		bit := b.pattern>>(st.idx%uint32(b.period))&1 != 0
		st.idx++
		return bit
	case bHistory:
		return parity(w.ghist&b.histMask) != b.histPhase
	case bLoop:
		if st.trips <= 0 {
			switch {
			case b.tripFixed > 0:
				st.trips = b.tripFixed
			case b.tripRange > 0:
				st.trips = b.tripBase + int32(w.r.Intn(int(b.tripRange)))
			default:
				st.trips = int32(w.r.Geometric(b.tripMean))
			}
		}
		st.trips--
		return st.trips > 0
	default:
		return false
	}
}

func (w *Walker) evalIndirect(b *behavior) uint64 {
	n := len(b.cases)
	if n == 1 {
		return b.cases[0]
	}
	var i int
	switch {
	case b.caseHist:
		i = int(mixHash(w.ghist) % uint64(n))
	case b.caseFlat > 0 && w.r.Bool(b.caseFlat):
		i = w.r.Intn(n)
	default:
		i = w.r.Zipf(n)
	}
	return b.cases[i]
}

func (w *Walker) memAddr(si *StaticInst, idx int) uint64 {
	switch si.mode {
	case memStream:
		cnt := w.memCnt[idx]
		w.memCnt[idx]++
		off := (uint64(cnt) * uint64(si.stride)) % si.span
		return si.base + off
	case memRandom:
		return si.base + (w.r.Uint64n(si.span) &^ 7)
	case memStack:
		return si.base + (w.r.Uint64n(si.span) &^ 7)
	default:
		return 0
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ClassAt returns the instruction class at pc. It implements the
// simulator's CodeInfo interface (post-decode class knowledge for UCP's
// alternate fill path).
func (p *Program) ClassAt(pc uint64) (isa.Class, bool) {
	idx := int((pc - CodeBase) / isa.InstBytes)
	if pc < CodeBase || idx >= len(p.Code) || pc%isa.InstBytes != 0 {
		return isa.ALU, false
	}
	return p.Code[idx].Class, true
}
