package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"ucp/internal/lint/dataflow"
)

// newMergeOrderAnalyzer guards the precondition of time-parallel
// simulation (ROADMAP item 1): when one run is sharded into segments
// simulated concurrently, per-segment statistics are combined by merge
// methods, and the combined result must be byte-identical at any worker
// count — which requires every merge on that path to be
// order-insensitive. Integer addition and min/max are; floating-point
// accumulation is not (float addition is non-associative, so merging
// A∪B then C can differ in the low bits from A∪(B∪C)).
//
// The rule finds every merge-shaped method — named Merge or Add with
// exactly one parameter of the receiver's own type — that is reachable
// through the call graph from the result-aggregation packages
// (internal/runq, internal/sim, and internal/wpar — the parallel
// executor's span reduction), and flags order-sensitive float
// accumulation in its body. The escape hatch is the annotation
//
//	//ucplint:commutative
//
// on the method's doc comment, which asserts the accumulation is exact
// in practice (e.g. float64 sums of integer-valued samples below 2^53
// never round, so any merge order produces identical bits). Every
// annotation must be backed by a dynamic shuffle-merge test built on
// stats.CheckCommutative; the lint test suite cross-checks that the
// annotated set and the dynamically verified set stay in sync.
func newMergeOrderAnalyzer() *Analyzer {
	const rule = "mergeorder"
	return &Analyzer{
		Name: rule,
		Doc:  "merge methods reachable from runq/sim aggregation must be order-insensitive or //ucplint:commutative",
		CheckModule: func(u *Universe, r *Reporter) {
			g := u.Graph
			reach := g.ReachableFrom(func(fn *types.Func) (string, bool) {
				n := g.NodeOf(fn)
				if n == nil {
					return "", false
				}
				if strings.HasSuffix(n.PkgPath, "internal/runq") {
					return "runq aggregation", true
				}
				if strings.HasSuffix(n.PkgPath, "internal/sim") {
					return "sim aggregation", true
				}
				if strings.HasSuffix(n.PkgPath, "internal/wpar") {
					return "wpar aggregation", true
				}
				return "", false
			})
			for _, n := range g.Nodes() {
				if !isMergeMethod(n) {
					continue
				}
				t, reachable := reach[n.Fn]
				if !reachable {
					continue
				}
				if funcMarked(n.Decl, "commutative") {
					continue
				}
				for _, acc := range floatAccumulations(n) {
					u.Report(r, acc, rule,
						"order-sensitive float accumulation in merge method %s, reachable from %s; make it exact or annotate //ucplint:commutative and add a shuffle-merge test",
						n.Fn.Name(), dataflow.RootChain(t))
				}
			}
		},
	}
}

// isMergeMethod reports whether n is merge-shaped: a method named Merge
// or Add taking exactly one parameter of the receiver's own type (the
// combine-two-aggregates signature cross-worker merges use).
func isMergeMethod(n *dataflow.Node) bool {
	if n.Decl.Recv == nil {
		return false
	}
	name := n.Fn.Name()
	if name != "Merge" && name != "Add" {
		return false
	}
	sig, _ := n.Fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil || sig.Params().Len() != 1 {
		return false
	}
	return types.Identical(deref(sig.Recv().Type()), deref(sig.Params().At(0).Type()))
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// floatAccumulations returns the positions of order-sensitive
// floating-point accumulation statements in n's body: compound
// assignment (x += y, x -= y, x *= y, x /= y) on a float lvalue, and
// plain assignment x = x ⊕ … whose right side reuses the left object.
func floatAccumulations(n *dataflow.Node) []token.Pos {
	info := n.Src.Info
	var out []token.Pos
	isFloat := func(e ast.Expr) bool {
		tv, ok := info.Types[e]
		if !ok || tv.Type == nil {
			return false
		}
		b, ok := tv.Type.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsFloat != 0
	}
	obj := func(e ast.Expr) types.Object {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.Uses[e]
		case *ast.SelectorExpr:
			return info.Uses[e.Sel]
		}
		return nil
	}
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		as, ok := x.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			for _, lhs := range as.Lhs {
				if isFloat(lhs) {
					out = append(out, as.Pos())
					break
				}
			}
		case token.ASSIGN:
			if len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				if !isFloat(lhs) {
					continue
				}
				lo := obj(lhs)
				if lo == nil {
					continue
				}
				bin, ok := as.Rhs[i].(*ast.BinaryExpr)
				if !ok {
					continue
				}
				switch bin.Op {
				case token.ADD, token.SUB, token.MUL, token.QUO:
					if obj(bin.X) == lo || obj(bin.Y) == lo {
						out = append(out, as.Pos())
					}
				}
			}
		}
		return true
	})
	return out
}
