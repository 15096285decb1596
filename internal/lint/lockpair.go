package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// LockPair verifies that every core.Mutex acquisition has a matching
// release on all paths out of the function (directly or via defer). A
// lock whose unlock is skipped on some path permanently disables every
// thread that later blocks on it — under the controlled scheduler that is
// not a livelock that might resolve, it is a guaranteed deadlock at some
// schedules and a recording that can never replay past the hang.
//
// The analysis is a per-function CFG walk: from each Lock call it searches
// every path to the function exit for a matching Unlock on the same
// receiver expression (textually compared, e.g. `grid[lo]` vs `grid[hi]`).
// Cross-function pairing (lock here, unlock in a callee) is out of scope;
// waive genuinely correct cases with //tsanrec:allow(lockpair).
type LockPair struct{}

// Name implements Analyzer.
func (LockPair) Name() string { return "lockpair" }

// Doc implements Analyzer.
func (LockPair) Doc() string {
	return "every core.Mutex Lock must reach a matching Unlock on all paths (or defer it)"
}

// lockCall is one resolved acquisition or release site.
type lockCall struct {
	call    *ast.CallExpr
	key     string // receiver expression + pairing class
	release bool
}

// pairings maps (type, method) to the matching release method. TryLock is
// excluded: its conditional result makes simple path-pairing meaningless.
var pairings = []struct {
	pkgSuffix, typeName, acquire, release string
}{
	{"internal/core", "Mutex", "Lock", "Unlock"},
}

// resolveLockCall classifies call as a tracked acquire/release, if it is one.
func resolveLockCall(info *types.Info, call *ast.CallExpr) (lockCall, bool) {
	for _, p := range pairings {
		if recv, ok := methodOn(info, call, p.pkgSuffix, p.typeName, p.acquire); ok {
			return lockCall{call: call, key: types.ExprString(recv) + "." + p.release, release: false}, true
		}
		if recv, ok := methodOn(info, call, p.pkgSuffix, p.typeName, p.release); ok {
			return lockCall{call: call, key: types.ExprString(recv) + "." + p.release, release: true}, true
		}
	}
	return lockCall{}, false
}

// Run implements Analyzer.
func (LockPair) Run(prog *Program, pkg *Package) []Finding {
	if prog.Framework(pkg) {
		return nil
	}
	var fs []Finding
	allFunctions(pkg, func(_ ast.Node, body *ast.BlockStmt) {
		g := buildCFG(body)
		for _, n := range g.nodes {
			for _, lc := range nodeLockCalls(pkg.Info, n) {
				if lc.release {
					continue
				}
				if !pathsAllRelease(pkg.Info, g, n, lc) {
					fs = append(fs, Finding{
						Pos:      prog.position(lc.call.Pos()),
						Check:    "lockpair",
						Severity: SeverityError,
						Message: fmt.Sprintf("%s is not reached on every path out of the function: a thread blocked on this lock would be disabled forever and the recording could never replay past it; unlock on all paths, defer the unlock, or waive with //tsanrec:allow(lockpair)",
							lc.key),
					})
				}
			}
		}
	})
	return fs
}

// nodeLockCalls extracts tracked lock/unlock calls from a CFG node's scan
// set, skipping nested function literals (they are analyzed on their own).
func nodeLockCalls(info *types.Info, n *cfgNode) []lockCall {
	var out []lockCall
	for _, scan := range n.scan {
		ast.Inspect(scan, func(x ast.Node) bool {
			if _, ok := x.(*ast.FuncLit); ok {
				return false
			}
			if call, ok := x.(*ast.CallExpr); ok {
				if lc, ok := resolveLockCall(info, call); ok {
					out = append(out, lc)
				}
			}
			return true
		})
	}
	return out
}

// nodeReleases reports whether node n releases key, either directly, via a
// defer of the matching unlock, or by aborting the program (panic/os.Exit:
// an aborting path needs no unlock). after restricts matches to calls
// positioned after the given origin call (for the node containing the lock
// itself).
func nodeReleases(info *types.Info, n *cfgNode, key string, origin *ast.CallExpr) bool {
	released := false
	for _, scan := range n.scan {
		ast.Inspect(scan, func(x ast.Node) bool {
			if released {
				return false
			}
			if _, ok := x.(*ast.FuncLit); ok {
				// A deferred closure may unlock; credit it only when it is
				// a direct `defer func() { ... }()` — handled below via the
				// scan including the DeferStmt — otherwise skip closures.
				return false
			}
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			if origin != nil && call.Pos() <= origin.Pos() {
				return true
			}
			if lc, ok := resolveLockCall(info, call); ok && lc.release && lc.key == key {
				released = true
				return false
			}
			if isAbortCall(info, call) {
				released = true
				return false
			}
			return true
		})
	}
	return released
}

// deferredReleases collects keys released by `defer x.Unlock(t)` (or a
// defer of a closure containing the unlock) inside a DeferStmt node.
func deferredKey(info *types.Info, s ast.Stmt) []string {
	d, ok := s.(*ast.DeferStmt)
	if !ok {
		return nil
	}
	var keys []string
	ast.Inspect(d, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok {
			if lc, ok := resolveLockCall(info, call); ok && lc.release {
				keys = append(keys, lc.key)
			}
		}
		return true
	})
	return keys
}

// isAbortCall reports whether call never returns: builtin panic, os.Exit,
// log.Fatal*.
func isAbortCall(info *types.Info, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fun.Name == "panic" {
			if _, isBuiltin := info.Uses[fun].(*types.Builtin); isBuiltin {
				return true
			}
		}
	case *ast.SelectorExpr:
		obj := info.Uses[fun.Sel]
		if obj == nil || obj.Pkg() == nil {
			return false
		}
		switch obj.Pkg().Path() {
		case "os":
			return obj.Name() == "Exit"
		case "log":
			return obj.Name() == "Fatal" || obj.Name() == "Fatalf" || obj.Name() == "Fatalln" ||
				obj.Name() == "Panic" || obj.Name() == "Panicf" || obj.Name() == "Panicln"
		}
	}
	return false
}

// pathsAllRelease walks the CFG from the node containing the lock call and
// reports whether every path to the function exit passes a matching
// release (or a registered defer, or an abort).
func pathsAllRelease(info *types.Info, g *funcCFG, origin *cfgNode, lc lockCall) bool {
	// A defer registered anywhere in the function body covers exits after
	// its registration; path-sensitivity over defer registration order is
	// overkill here, so any matching defer in the function satisfies the
	// pair (the runtime still panics on a genuinely unheld unlock).
	for _, n := range g.nodes {
		for _, scan := range n.scan {
			if s, ok := scan.(ast.Stmt); ok {
				for _, k := range deferredKey(info, s) {
					if k == lc.key {
						return true
					}
				}
			}
		}
	}
	// Same-node release after the lock call itself.
	if nodeReleases(info, origin, lc.key, lc.call) {
		return true
	}
	visited := map[*cfgNode]bool{}
	var stack []*cfgNode
	stack = append(stack, origin.succs...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[n] {
			continue
		}
		visited[n] = true
		if n.exit {
			return false
		}
		if nodeReleases(info, n, lc.key, nil) {
			continue
		}
		stack = append(stack, n.succs...)
	}
	return true
}
