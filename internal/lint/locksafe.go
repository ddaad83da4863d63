package lint

import (
	"go/ast"
	"go/types"
)

// LockSafe enforces the scheduler-mutex contract (DESIGN.md decisions 11 and
// 12): the batcher and jobs-manager mutexes serialize fast bookkeeping only —
// no device dispatch, channel operation, or otherwise blocking call may
// execute while one is held, because every engine worker, HTTP handler, and
// job shard contends on them. A blocking call under the mutex turns a
// microsecond critical section into a convoy (or, for channel waits that are
// themselves resolved by a goroutine needing the same mutex, a deadlock).
//
// The analysis is lexical and per-function: it tracks sync.Mutex/RWMutex
// Lock/Unlock pairs through straight-line code (branch bodies carry a copy of
// the lock state; `defer mu.Unlock()` holds to function end) and reports,
// inside a held region:
//
//   - channel sends and receives (except inside a select with a default
//     clause — the non-blocking idiom),
//   - select statements without a default clause,
//   - range over a channel,
//   - calls with known unbounded blocking: sync.WaitGroup.Wait,
//     sync.Cond.Wait, time.Sleep, device.Device dispatch
//     (Forward/Prefill/ExtendBatch/ScoreAll and the one body under them:
//     dispatch, Batcher.submit, core.inline, core.run), device.Pool.Run,
//     jobs.Job.Wait, lru.Flight.Wait (a single-flight waiter parks until
//     the owner finishes, which needs the owner's cache mutex).
//
// Function literals are analyzed independently: a goroutine body spawned
// under a lock runs after the spawner releases it. Helpers that require the
// caller to hold a lock (the *Locked naming convention) are not modeled; the
// analyzer sees only literal Lock/Unlock pairs.
var LockSafe = &Analyzer{
	Name: "locksafe",
	Doc: "no channel ops, device dispatch, or blocking calls while holding " +
		"a batcher/jobs-manager style mutex",
	Run: runLockSafe,
}

// blockingMethods lists (pkg, receiver type, method) triples with unbounded
// blocking behavior.
var blockingMethods = [][3]string{
	{"sync", "WaitGroup", "Wait"},
	{"sync", "Cond", "Wait"},
	{"repro/internal/device", "Device", "Forward"},
	{"repro/internal/device", "Device", "Prefill"},
	{"repro/internal/device", "Device", "ExtendBatch"},
	{"repro/internal/device", "Device", "ScoreAll"},
	{"repro/internal/device", "Device", "dispatch"},
	{"repro/internal/device", "Batcher", "submit"},
	{"repro/internal/device", "core", "inline"},
	{"repro/internal/device", "core", "run"},
	{"repro/internal/device", "Pool", "Run"},
	{"repro/internal/jobs", "Job", "Wait"},
	{"repro/internal/lru", "Flight", "Wait"},
}

// blockingFuncs lists package-level blocking functions.
var blockingFuncs = [][2]string{
	{"time", "Sleep"},
}

func runLockSafe(p *Pass) error {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				scanLockRegions(p, fd.Body)
			}
		}
	}
	return nil
}

// lockState tracks mutexes currently held, keyed by the receiver expression's
// printed form ("m.mu", "b.mu").
type lockState struct {
	held map[string]bool
}

func (s *lockState) clone() *lockState {
	c := &lockState{held: map[string]bool{}}
	for k := range s.held {
		c.held[k] = true
	}
	return c
}

func (s *lockState) any() bool { return len(s.held) > 0 }

// heldNames returns one representative held-mutex name for diagnostics.
func (s *lockState) name() string {
	for k := range s.held {
		return k
	}
	return "mutex"
}

// scanLockRegions walks one function body; nested function literals restart
// with an empty lock state.
func scanLockRegions(p *Pass, body *ast.BlockStmt) {
	scanStmts(p, body.List, &lockState{held: map[string]bool{}})
}

// scanStmts processes a statement list linearly, mutating state as Lock and
// Unlock calls appear and recursing into control flow with cloned state.
func scanStmts(p *Pass, stmts []ast.Stmt, state *lockState) {
	for _, st := range stmts {
		scanStmt(p, st, state)
	}
}

func scanStmt(p *Pass, st ast.Stmt, state *lockState) {
	switch s := st.(type) {
	case *ast.ExprStmt:
		if name, op, ok := mutexOp(p, s.X); ok {
			switch op {
			case "Lock", "RLock":
				state.held[name] = true
			case "Unlock", "RUnlock":
				delete(state.held, name)
			}
			return
		}
		checkExprUnderLock(p, s.X, state)
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held to function end: leave state
		// as-is. Other deferred calls run at return, outside our region model.
		if _, _, ok := mutexOp(p, s.Call); ok {
			return
		}
		for _, arg := range s.Call.Args {
			checkExprUnderLock(p, arg, state)
		}
	case *ast.GoStmt:
		// The spawned body runs concurrently, not under the caller's lock;
		// analyze it with fresh state via the FuncLit case below. Arguments
		// are evaluated now, though.
		for _, arg := range s.Call.Args {
			checkExprUnderLock(p, arg, state)
		}
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			scanStmts(p, fl.Body.List, &lockState{held: map[string]bool{}})
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			checkExprUnderLock(p, e, state)
		}
		for _, e := range s.Lhs {
			checkExprUnderLock(p, e, state)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						checkExprUnderLock(p, v, state)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			checkExprUnderLock(p, e, state)
		}
	case *ast.SendStmt:
		if state.any() {
			p.Reportf(s.Arrow, "channel send while holding %s; sends can block indefinitely — move them outside the critical section", state.name())
		}
		checkExprUnderLock(p, s.Value, state)
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if state.any() && !hasDefault {
			p.Reportf(s.Select, "blocking select while holding %s; add a default clause or move it outside the critical section", state.name())
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				scanStmts(p, cc.Body, state.clone())
			}
		}
	case *ast.BlockStmt:
		scanStmts(p, s.List, state)
	case *ast.IfStmt:
		if s.Init != nil {
			scanStmt(p, s.Init, state)
		}
		checkExprUnderLock(p, s.Cond, state)
		scanStmts(p, s.Body.List, state.clone())
		if s.Else != nil {
			scanStmt(p, s.Else, state.clone())
		}
	case *ast.ForStmt:
		if s.Init != nil {
			scanStmt(p, s.Init, state)
		}
		if s.Cond != nil {
			checkExprUnderLock(p, s.Cond, state)
		}
		scanStmts(p, s.Body.List, state.clone())
	case *ast.RangeStmt:
		if state.any() {
			if t := p.TypeOf(s.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					p.Reportf(s.For, "range over channel while holding %s; the receive blocks until the channel closes", state.name())
				}
			}
		}
		checkExprUnderLock(p, s.X, state)
		scanStmts(p, s.Body.List, state.clone())
	case *ast.SwitchStmt:
		if s.Init != nil {
			scanStmt(p, s.Init, state)
		}
		if s.Tag != nil {
			checkExprUnderLock(p, s.Tag, state)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				scanStmts(p, cc.Body, state.clone())
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				scanStmts(p, cc.Body, state.clone())
			}
		}
	case *ast.LabeledStmt:
		scanStmt(p, s.Stmt, state)
	}
}

// checkExprUnderLock reports blocking expressions (receives, blocking calls)
// and recurses into nested function literals with fresh lock state.
func checkExprUnderLock(p *Pass, e ast.Expr, state *lockState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			scanStmts(p, n.Body.List, &lockState{held: map[string]bool{}})
			return false
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" && state.any() {
				p.Reportf(n.OpPos, "channel receive while holding %s; receives can block indefinitely — move them outside the critical section", state.name())
			}
		case *ast.CallExpr:
			if state.any() {
				checkBlockingCall(p, n, state)
			}
		}
		return true
	})
}

func checkBlockingCall(p *Pass, call *ast.CallExpr, state *lockState) {
	f := calleeFunc(p, call)
	if f == nil {
		return
	}
	for _, bf := range blockingFuncs {
		if funcFrom(f, bf[0], bf[1]) {
			p.Reportf(call.Pos(), "%s.%s while holding %s; blocking calls are forbidden in the critical section", bf[0], bf[1], state.name())
			return
		}
	}
	for _, bm := range blockingMethods {
		if methodOn(f, bm[0], bm[1], bm[2]) {
			p.Reportf(call.Pos(), "%s.%s (device dispatch / unbounded wait) while holding %s; dispatch outside the critical section", bm[1], bm[2], state.name())
			return
		}
	}
}

// mutexOp recognizes mu.Lock()/Unlock()/RLock()/RUnlock() calls on
// sync.Mutex/RWMutex values, returning the receiver's printed name and the
// operation.
func mutexOp(p *Pass, e ast.Expr) (name, op string, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	t := p.TypeOf(sel.X)
	if t == nil {
		return "", "", false
	}
	if !namedAs(t, "sync", "Mutex") && !namedAs(t, "sync", "RWMutex") {
		return "", "", false
	}
	return exprString(sel.X), sel.Sel.Name, true
}
