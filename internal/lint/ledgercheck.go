package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"slices"
)

// LedgerCheck enforces the durability contract (DESIGN.md decision 11): the
// run ledger is only tamper-evident if every record actually reached the
// file, so Write/Sync/Close-class errors on ledgers and writable files must
// be checked. An ignored flush error converts "crash loses at most one
// checkpoint interval" into silent data loss that Verify later reports as
// tampering. A dropped device fault (decision 15) is the same silent loss.
//
// Flagged: statements (including defer) that call an error-returning
// method and discard the result, and `v, _ := x.M()`, where x is
//
//   - *jobs.Ledger (Append / Sync / Close),
//   - *device.Device (Forward / Prefill / ExtendBatch / ScoreAll),
//   - *bufio.Writer (Write / WriteString / Flush / ...),
//   - *os.File — unless the file is provably read-only in the same function
//     (opened with os.Open, or os.OpenFile with O_RDONLY), where a Close
//     error carries no durability information.
//
// Explicitly discarding with a blank assignment (`_ = f.Close()`) is an
// audited decision and is not flagged; the diff records it. Results consumed
// any other way (checked, returned, assigned) are never flagged.
var LedgerCheck = &Analyzer{
	Name: "ledgercheck",
	Doc: "Write/Sync/Close errors on ledger and checkpoint files, and device " +
		"dispatch errors, must be checked (or explicitly discarded with _ =)",
	Run: runLedgerCheck,
}

// durabilityReceivers maps (pkg path, type name) to the method names whose
// errors must be checked. An empty method set means every error-returning
// method.
var durabilityReceivers = map[[2]string]map[string]bool{
	{"repro/internal/jobs", "Ledger"}:   nil, // all error-returning methods
	{"repro/internal/device", "Device"}: nil,
	{"bufio", "Writer"}:                 nil,
	{"os", "File"}: {
		"Close": true, "Sync": true, "Write": true, "WriteString": true,
		"WriteAt": true, "Truncate": true, "ReadFrom": true,
	},
}

func runLedgerCheck(p *Pass) error {
	funcBodies(p, func(name string, body *ast.BlockStmt) {
		readonly := readonlyFiles(p, body)
		ast.Inspect(body, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch n := n.(type) {
			case *ast.ExprStmt:
				if c, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
					call = c
				}
			case *ast.DeferStmt:
				call = n.Call
			case *ast.GoStmt:
				call = n.Call
			case *ast.AssignStmt: // `v, _ := x.M()`: a result kept, the trailing error dropped
				blank := func(e ast.Expr) bool { id, ok := e.(*ast.Ident); return ok && id.Name == "_" }
				last := len(n.Lhs) - 1
				if c, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok && last > 0 && blank(n.Lhs[last]) &&
					slices.ContainsFunc(n.Lhs[:last], func(e ast.Expr) bool { return !blank(e) }) {
					call = c
				}
			}
			if call == nil {
				return true
			}
			checkDurabilityCall(p, call, readonly)
			return true
		})
	})
	return nil
}

func checkDurabilityCall(p *Pass, call *ast.CallExpr, readonly map[types.Object]bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	f, ok := p.ObjectOf(sel.Sel).(*types.Func)
	if !ok {
		return
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !returnsError(sig) {
		return
	}
	recv := sig.Recv().Type()
	for key, methods := range durabilityReceivers {
		if !namedAs(recv, key[0], key[1]) {
			continue
		}
		if methods != nil && !methods[f.Name()] {
			return
		}
		// Read-only *os.File handles: Close is informational.
		if key[0] == "os" && key[1] == "File" {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
				if obj := p.ObjectOf(id); obj != nil && readonly[obj] {
					return
				}
			}
		}
		p.Reportf(call.Pos(), "%s.%s error is discarded; durability and device errors must be checked (or explicitly discarded with `_ =` after auditing)", typeShort(recv), f.Name())
		return
	}
}

func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if named, ok := res.At(i).Type().(*types.Named); ok {
			if named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
				return true
			}
		}
	}
	return false
}

// readonlyFiles finds local variables bound to read-only file opens within
// the function: f, err := os.Open(...) or os.OpenFile(..., os.O_RDONLY, ...).
func readonlyFiles(p *Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Rhs) != 1 || len(asg.Lhs) == 0 {
			return true
		}
		call, ok := ast.Unparen(asg.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		f := calleeFunc(p, call)
		switch {
		case funcFrom(f, "os", "Open"):
		case funcFrom(f, "os", "OpenFile") && len(call.Args) >= 2 && isReadOnlyFlag(p, call.Args[1]):
		default:
			return true
		}
		if id, ok := asg.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
			if obj := p.ObjectOf(id); obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// isReadOnlyFlag reports whether the open-flag expression is the constant
// os.O_RDONLY (no write/append/create/truncate bits).
func isReadOnlyFlag(p *Pass, e ast.Expr) bool {
	tv, ok := p.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	v, ok := constant.Int64Val(tv.Value)
	if !ok {
		return false
	}
	// O_RDONLY is 0 on every platform Go supports; any set bit beyond the
	// access mode implies write-side behavior.
	return v == 0
}
