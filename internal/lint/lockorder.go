package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockOrder machine-checks the concurrency discipline the registry's log,
// the group-commit WAL, and the resilience layer rely on:
//
//  1. A static lock-acquisition graph is accumulated across every
//     analyzed package: acquiring mutex B while holding mutex A adds the
//     edge A→B (directly, or through a call chain — the analyzer
//     propagates each function's acquired-lock summary over the call
//     graph). After the last package, any edge on a cycle is reported:
//     two call paths that take the same two locks in opposite orders can
//     deadlock under exactly the concurrent load the serving path is
//     built for.
//  2. Blocking operations made while a mutex is held are flagged:
//     fsync ((*os.File).Sync), channel sends and receives (unless the
//     enclosing select has a default clause), network dials/requests,
//     and sync.Cond.Wait outside a for loop (a woken waiter must
//     re-check its predicate). A blocking call under a hot mutex turns
//     one slow disk or peer into a convoy of every other locker.
//
// The walk is source-order and intentionally not path-sensitive: a
// Lock() marks the mutex held until the matching Unlock() in statement
// order (deferred unlocks hold to function end). Helpers that run with a
// caller's lock held re-acquire nothing themselves, so unlock-then-relock
// helpers (walWriter.lead) do not self-cycle: reflexive edges are
// discarded. Deliberate exceptions — e.g. an fsync under a mutex on a
// world-quiesced path — carry //lint:lockorder with a justification.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "consistent cross-package mutex acquisition order; no blocking calls (fsync, channel ops, net I/O, naked Cond.Wait) under a held mutex",
	Applies: func(path string) bool {
		switch path {
		case "wstrust/internal/registry", "wstrust/internal/resilience", "wstrust/cmd/wsxd",
			"wstrust/internal/replica", "wstrust/internal/chaos":
			return true
		}
		return false
	},
	Run:    runLockOrder,
	Begin:  beginLockOrder,
	Finish: finishLockOrder,
}

// lockEdge is one witnessed A-held-while-acquiring-B event.
type lockEdge struct {
	from, to         string // mutex keys
	fromName, toName string // short display names
	pos              token.Position
	suppressed       bool
}

// lockCall is a function call made while at least one mutex was held,
// kept for interprocedural edge propagation at Finish time.
type lockCall struct {
	callee     string   // callee summary key (types.Func FullName)
	held       []string // mutex keys held at the call site
	heldNames  []string
	pos        token.Position
	suppressed bool
}

// lockFn is one analyzed function's summary.
type lockFn struct {
	acquires map[string]string // mutex key → display name
	calls    []lockCall
}

// lockState is the cross-package accumulator, reset by Begin.
var lockState struct {
	fns   map[string]*lockFn
	edges []lockEdge
}

func beginLockOrder() {
	lockState.fns = map[string]*lockFn{}
	lockState.edges = nil
}

func runLockOrder(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if pass.FuncSuppressed(fn) {
				continue
			}
			pass.walkLockOrder(fn)
		}
	}
}

// walkLockOrder simulates fn's body in source order, tracking the held
// mutex set, recording acquisition edges, call-site summaries, and
// blocking-under-lock findings.
func (p *Pass) walkLockOrder(fn *ast.FuncDecl) {
	key := ""
	if obj, ok := p.TypesInfo.Defs[fn.Name].(*types.Func); ok {
		key = obj.FullName()
	}
	info := &lockFn{acquires: map[string]string{}}
	if key != "" {
		lockState.fns[key] = info
	}

	held := map[string]string{} // mutex key → display name, in-scope locks

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.SendStmt:
			p.flagBlocking(node.Pos(), "channel send", held, node)
		case *ast.UnaryExpr:
			if node.Op == token.ARROW {
				p.flagBlocking(node.Pos(), "channel receive", held, node)
			}
		case *ast.CallExpr:
			sel, ok := node.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Lock", "RLock", "TryLock", "TryRLock":
				if mu, name, ok := p.mutexOperand(sel.X); ok {
					for from, fromName := range held {
						lockState.edges = append(lockState.edges, lockEdge{
							from: from, to: mu, fromName: fromName, toName: name,
							pos: p.Fset.Position(node.Pos()), suppressed: p.lineSuppressed(node.Pos()),
						})
					}
					held[mu] = name
					info.acquires[mu] = name
				}
				return true
			case "Unlock", "RUnlock":
				if mu, _, ok := p.mutexOperand(sel.X); ok {
					// A deferred unlock holds to function end; an inline
					// one releases from here on in statement order.
					if !inDefer(fn.Body, node) {
						delete(held, mu)
					}
				}
				return true
			case "Wait":
				if p.isCondExpr(sel.X) && !inForLoop(fn.Body, node) {
					p.Reportf(node.Pos(),
						"sync.Cond.Wait outside a for loop: a woken waiter must re-check its predicate in a loop")
				}
				return true
			case "Sync":
				if p.isOSFile(sel.X) {
					p.flagBlocking(node.Pos(), "fsync ((*os.File).Sync)", held, nil)
				}
			}
			if path, ok := p.packageQualifier(sel); ok && (path == "net" || path == "net/http") {
				p.flagBlocking(node.Pos(), fmt.Sprintf("network call %s.%s", baseName(path), sel.Sel.Name), held, nil)
				return true
			}
			// Record calls made under a lock for interprocedural edges.
			if len(held) > 0 {
				if obj, ok := p.TypesInfo.Uses[sel.Sel].(*types.Func); ok {
					call := lockCall{
						callee: obj.FullName(),
						pos:    p.Fset.Position(node.Pos()), suppressed: p.lineSuppressed(node.Pos()),
					}
					for k, name := range held {
						call.held = append(call.held, k)
						call.heldNames = append(call.heldNames, name)
					}
					sort.Strings(call.held)
					sort.Strings(call.heldNames)
					info.calls = append(info.calls, call)
				}
			}
		}
		return true
	})
}

// flagBlocking reports a blocking operation if any mutex is held. Channel
// operations inside a select that has a default clause are non-blocking
// and exempt.
func (p *Pass) flagBlocking(pos token.Pos, what string, held map[string]string, node ast.Node) {
	if len(held) == 0 {
		return
	}
	if node != nil && p.inNonBlockingSelect(node) {
		return
	}
	names := make([]string, 0, len(held))
	for _, n := range held {
		names = append(names, n)
	}
	sort.Strings(names)
	p.Reportf(pos, "%s while holding mutex %s blocks every other locker; move it outside the critical section or justify with //lint:lockorder",
		what, names[0])
}

// inNonBlockingSelect reports whether node sits inside a select statement
// that has a default clause (making its channel operations non-blocking).
func (p *Pass) inNonBlockingSelect(node ast.Node) bool {
	file := p.fileOf(node.Pos())
	if file == nil {
		return false
	}
	found := false
	ast.Inspect(file, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok || node.Pos() < sel.Pos() || node.End() > sel.End() {
			return true
		}
		for _, clause := range sel.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
				found = true
			}
		}
		return true
	})
	return found
}

// mutexOperand resolves an expression to a sync.Mutex/RWMutex identity:
// a stable key for the graph and a short display name. Fields key on
// owner-type.field, so every instance of one struct's mu is one graph
// node — exactly the granularity lock-order reasoning wants.
func (p *Pass) mutexOperand(x ast.Expr) (key, name string, ok bool) {
	t := p.TypesInfo.TypeOf(x)
	if !p.isSyncLockable(t) {
		return "", "", false
	}
	switch recv := x.(type) {
	case *ast.SelectorExpr: // s.mu.Lock() or s.q.mu.Lock()
		if selection, ok := p.TypesInfo.Selections[recv]; ok && selection.Kind() == types.FieldVal {
			owner := selection.Recv()
			for {
				if ptr, isPtr := owner.(*types.Pointer); isPtr {
					owner = ptr.Elem()
				} else {
					break
				}
			}
			ownerName := "?"
			pkgPath := p.Pkg.Path()
			if named, isNamed := owner.(*types.Named); isNamed {
				ownerName = named.Obj().Name()
				if named.Obj().Pkg() != nil {
					pkgPath = named.Obj().Pkg().Path()
				}
			}
			field := selection.Obj().Name()
			return pkgPath + "." + ownerName + "." + field, ownerName + "." + field, true
		}
	case *ast.Ident: // mu.Lock() on a local or package-level mutex
		if obj := p.TypesInfo.Uses[recv]; obj != nil {
			pkgPath := p.Pkg.Path()
			if obj.Pkg() != nil {
				pkgPath = obj.Pkg().Path()
			}
			return pkgPath + "." + obj.Name(), obj.Name(), true
		}
	}
	return "", "", false
}

// isSyncLockable reports whether t is sync.Mutex or sync.RWMutex (or a
// pointer to one).
func (p *Pass) isSyncLockable(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false
	}
	return named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex"
}

// isCondExpr reports whether x is a sync.Cond (or pointer/field thereof).
func (p *Pass) isCondExpr(x ast.Expr) bool {
	t := p.TypesInfo.TypeOf(x)
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "Cond"
}

// isOSFile reports whether x is an *os.File.
func (p *Pass) isOSFile(x ast.Expr) bool {
	t := p.TypesInfo.TypeOf(x)
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "os" && named.Obj().Name() == "File"
}

// inDefer reports whether call is the call of a defer statement in body.
func inDefer(body *ast.BlockStmt, call *ast.CallExpr) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok && d.Call == call {
			found = true
		}
		return !found
	})
	return found
}

// inForLoop reports whether node sits inside a for/range statement within
// body.
func inForLoop(body *ast.BlockStmt, node ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if node.Pos() >= n.Pos() && node.End() <= n.End() {
				found = true
			}
		}
		return !found
	})
	return found
}

// finishLockOrder closes the interprocedural edges (locks acquired by a
// callee while the caller held others) and reports every edge that lies
// on a cycle in the acquisition graph.
func finishLockOrder(report func(Diagnostic)) {
	// Fixpoint: each function's acquired-lock set absorbs its callees'.
	changed := true
	for changed {
		changed = false
		for _, fn := range lockState.fns {
			for _, call := range fn.calls {
				callee, ok := lockState.fns[call.callee]
				if !ok {
					continue
				}
				for mu, name := range callee.acquires {
					if _, have := fn.acquires[mu]; !have {
						fn.acquires[mu] = name
						changed = true
					}
				}
			}
		}
	}

	edges := append([]lockEdge(nil), lockState.edges...)
	for _, fn := range lockState.fns {
		for _, call := range fn.calls {
			callee, ok := lockState.fns[call.callee]
			if !ok {
				continue
			}
			for mu, name := range callee.acquires {
				for i, from := range call.held {
					edges = append(edges, lockEdge{
						from: from, to: mu, fromName: call.heldNames[i], toName: name,
						pos: call.pos, suppressed: call.suppressed,
					})
				}
			}
		}
	}

	// Reflexive edges are dropped: they come from unlock-then-relock
	// helpers called with the lock held, not from genuine re-entrancy.
	adj := map[string]map[string]bool{}
	for _, e := range edges {
		if e.from == e.to {
			continue
		}
		if adj[e.from] == nil {
			adj[e.from] = map[string]bool{}
		}
		adj[e.from][e.to] = true
	}
	reaches := func(src, dst string) bool {
		seen := map[string]bool{}
		stack := []string{src}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if n == dst {
				return true
			}
			if seen[n] {
				continue
			}
			seen[n] = true
			for m := range adj[n] {
				stack = append(stack, m)
			}
		}
		return false
	}

	seen := map[string]bool{} // one report per (edge, position)
	for _, e := range edges {
		if e.suppressed || e.from == e.to || !reaches(e.to, e.from) {
			continue
		}
		k := fmt.Sprintf("%s|%s|%s:%d", e.from, e.to, e.pos.Filename, e.pos.Line)
		if seen[k] {
			continue
		}
		seen[k] = true
		report(Diagnostic{
			Pos:      e.pos,
			Analyzer: "lockorder",
			Message: fmt.Sprintf("acquiring %s while holding %s is part of a lock-order cycle (%s is elsewhere held before %s); pick one global order or justify with //lint:lockorder",
				e.toName, e.fromName, e.toName, e.fromName),
		})
	}
}
