package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// LockOrder is the whole-program static deadlock detector: it computes,
// per function and transitively through the call graph, the set of
// core.Mutex objects held at each Lock site, builds the global
// lock-acquisition-order graph, and reports every cycle with one witness
// path per edge. Two threads that acquire the same pair of locks in
// opposite orders can each hold one and block forever on the other —
// under the controlled scheduler some schedule WILL find that interleaving
// and the recording will hang rather than merely race.
//
// Locks are keyed by the constant name passed to rt.NewMutex(name) when
// the creation site binds a variable or struct field the analysis can
// see; unnamed locks fall back to their variable/field identity. The
// analysis is syntactic over each function body (no path sensitivity) and
// CHA-imprecise across calls, so it over-approximates: a reported cycle
// that is intentional (try-lock back-off, guaranteed-disjoint instances)
// is waived with //tsanrec:allow(lockorder) on any statement contributing
// an edge.
type LockOrder struct{}

// Name implements Analyzer.
func (LockOrder) Name() string { return "lockorder" }

// Doc implements Analyzer.
func (LockOrder) Doc() string {
	return "lock acquisition order must be acyclic across the whole program (static deadlock freedom)"
}

// Run implements Analyzer. The computation is whole-program and cached on
// the Program; each package's Run returns only the findings anchored in
// that package, so every cycle is reported exactly once.
func (LockOrder) Run(prog *Program, pkg *Package) []Finding {
	if prog.Framework(pkg) {
		return nil
	}
	ix := prog.interState()
	if !ix.lockDone {
		ix.lockFindings = ix.computeLockOrder()
		ix.lockDone = true
	}
	var out []Finding
	for _, f := range ix.lockFindings {
		if filepath.Dir(f.Pos.Filename) == pkg.Dir {
			out = append(out, f)
		}
	}
	return out
}

// heldRef is one lock in a held-set, with the provenance needed to print a
// witness: where it was acquired and through which call chain it is still
// held here.
type heldRef struct {
	key    string
	disp   string         // display name for messages
	acqPos token.Position // the Lock call that acquired it
	acqFn  string         // function containing that Lock call
	chain  []token.Position
}

// acquireSite is one Lock call in a function, with the locks locally
// held when control reaches it.
type acquireSite struct {
	key        string
	disp       string
	pos        token.Position
	heldBefore []heldRef
}

// lockCallSite is one non-lock call with the locks locally held across it.
type lockCallSite struct {
	callees []*funcNode
	pos     token.Position
	held    []heldRef
}

// fnLockSummary is the per-function input to the interprocedural fixpoint.
type fnLockSummary struct {
	fn       *funcNode
	acquires []acquireSite
	calls    []lockCallSite
}

// lockEdge is one edge of the global lock-order graph: "to" was acquired
// while "from" was held, with a concrete witness.
type lockEdge struct {
	from, to         string
	fromDisp, toDisp string
	fromHeld         heldRef        // provenance of the held lock
	toPos            token.Position // acquisition of the new lock
	toFn             string
}

// computeLockOrder runs the whole-program analysis: per-function held-set
// scans, the heldAtEntry fixpoint over the call graph, edge collection,
// and cycle reporting.
func (ix *interState) computeLockOrder() []Finding {
	prog := ix.prog

	// Per-function syntactic summaries, framework code excluded: the
	// runtime implements the locks and reaches around its own API, and
	// user-level ordering is fully visible at user call sites.
	var summaries []*fnLockSummary
	byFn := make(map[*funcNode]*fnLockSummary)
	for _, fn := range ix.funcs {
		if prog.Framework(fn.pkg) {
			continue
		}
		s := ix.scanFunction(fn)
		summaries = append(summaries, s)
		byFn[fn] = s
	}

	// Fixpoint: heldEntry[g] accumulates every lock some caller holds
	// across a call to g, transitively. Held sets only grow, and each
	// key's witness is fixed at first insertion, so this terminates.
	heldEntry := make(map[*funcNode]map[string]heldRef)
	queue := make([]*fnLockSummary, len(summaries))
	copy(queue, summaries)
	inQueue := make(map[*funcNode]bool, len(summaries))
	for _, s := range summaries {
		inQueue[s.fn] = true
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		inQueue[s.fn] = false
		entry := sortedHeld(heldEntry[s.fn])
		for _, cs := range s.calls {
			for _, g := range cs.callees {
				gs := byFn[g]
				if gs == nil {
					continue // framework callee: not traced
				}
				m := heldEntry[g]
				if m == nil {
					m = make(map[string]heldRef)
					heldEntry[g] = m
				}
				grew := false
				for _, h := range append(entry, cs.held...) {
					if _, ok := m[h.key]; ok {
						continue
					}
					nh := h
					nh.chain = append(append([]token.Position{}, h.chain...), cs.pos)
					m[h.key] = nh
					grew = true
				}
				if grew && !inQueue[g] {
					queue = append(queue, gs)
					inQueue[g] = true
				}
			}
		}
	}

	// Edge collection: every acquisition while anything is held, whether
	// the held lock is local to the function or inherited at entry.
	edges := make(map[[2]string]lockEdge)
	addEdge := func(held heldRef, a acquireSite, fn string) {
		k := [2]string{held.key, a.key}
		if _, ok := edges[k]; ok {
			return
		}
		edges[k] = lockEdge{from: held.key, to: a.key, fromDisp: held.disp,
			toDisp: a.disp, fromHeld: held, toPos: a.pos, toFn: fn}
	}
	for _, s := range summaries {
		entry := sortedHeld(heldEntry[s.fn])
		for _, a := range s.acquires {
			for _, h := range a.heldBefore {
				addEdge(h, a, s.fn.name)
			}
			for _, h := range entry {
				addEdge(h, a, s.fn.name)
			}
		}
	}

	return ix.reportCycles(edges)
}

// scanFunction produces fn's lock summary: a pre-order walk of the body
// tracking a stack of locally-held locks, recording every acquisition and
// every call with the holds live at that point. The walk is syntactic —
// branch-insensitive — which can only over-approximate the held sets.
func (ix *interState) scanFunction(fn *funcNode) *fnLockSummary {
	s := &fnLockSummary{fn: fn}
	var held []heldRef
	snapshot := func() []heldRef { return append([]heldRef{}, held...) }
	ast.Inspect(fn.body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if x != fn.node {
				return false // separate funcNode, scanned on its own
			}
		case *ast.DeferStmt:
			// A deferred unlock keeps the lock held for the rest of the
			// function, which the stack already models by not popping; a
			// deferred anything-else runs with at most what is held at
			// some exit, over-approximated by the holds here.
			if _, rel, ok := ix.classifyLockCall(fn.pkg, x.Call); ok && rel {
				return false
			}
			if callees := ix.callees(fn.pkg, x.Call); len(callees) > 0 {
				s.calls = append(s.calls, lockCallSite{callees: callees,
					pos: ix.prog.position(x.Call.Pos()), held: snapshot()})
			}
			return false
		case *ast.CallExpr:
			if ref, rel, ok := ix.classifyLockCall(fn.pkg, x); ok {
				if rel {
					popped := false
					for i := len(held) - 1; i >= 0; i-- {
						if held[i].key == ref.key {
							held = append(held[:i], held[i+1:]...)
							popped = true
							break
						}
					}
					if !popped && strings.HasPrefix(ref.key, "expr:") {
						// Site-keyed receivers never key-match their unlock
						// site; pair the most recent hold with the same text
						// so loops do not accumulate phantom holds.
						for i := len(held) - 1; i >= 0; i-- {
							if held[i].disp == ref.disp {
								held = append(held[:i], held[i+1:]...)
								break
							}
						}
					}
				} else {
					ref.acqFn = fn.name
					s.acquires = append(s.acquires, acquireSite{key: ref.key,
						disp: ref.disp, pos: ref.acqPos, heldBefore: snapshot()})
					held = append(held, ref)
				}
				return true
			}
			if callees := ix.callees(fn.pkg, x); len(callees) > 0 {
				s.calls = append(s.calls, lockCallSite{callees: callees,
					pos: ix.prog.position(x.Pos()), held: snapshot()})
			}
		}
		return true
	})
	return s
}

// classifyLockCall resolves call as a tracked lock acquisition or release
// and returns the lock's identity.
func (ix *interState) classifyLockCall(pkg *Package, call *ast.CallExpr) (heldRef, bool, bool) {
	for _, p := range pairings {
		if recv, ok := methodOn(pkg.Info, call, p.pkgSuffix, p.typeName, p.acquire); ok {
			key, disp := ix.lockIdentity(pkg, recv)
			return heldRef{key: key, disp: disp, acqPos: ix.prog.position(call.Pos())}, false, true
		}
		if recv, ok := methodOn(pkg.Info, call, p.pkgSuffix, p.typeName, p.release); ok {
			key, disp := ix.lockIdentity(pkg, recv)
			return heldRef{key: key, disp: disp}, true, true
		}
	}
	return heldRef{}, false, false
}

// lockIdentity maps a lock receiver expression to a graph vertex. Locks
// whose creation bound a constant name are keyed by that name — the same
// identity across every alias, parameter and field access. Unnamed locks
// key on the variable/field object. Receivers the analysis cannot resolve
// to an object at all (`grid[i]`, a call result) key on the access SITE:
// same-text expressions usually denote different instances, so aliasing
// them would manufacture self-cycles out of correct code.
func (ix *interState) lockIdentity(pkg *Package, recv ast.Expr) (key, disp string) {
	if obj := lvalueObj(pkg, recv); obj != nil {
		if name, ok := ix.lockNames[obj]; ok {
			return "name:" + name, fmt.Sprintf("%q", name)
		}
		pos := ix.prog.position(obj.Pos())
		return fmt.Sprintf("obj:%s:%d:%d", pos.Filename, pos.Line, pos.Column), obj.Name()
	}
	pos := ix.prog.position(recv.Pos())
	return fmt.Sprintf("expr:%s:%d:%d", pos.Filename, pos.Line, pos.Column), exprText(recv)
}

func exprText(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprText(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprText(x.X) + "[...]"
	case *ast.ParenExpr:
		return exprText(x.X)
	case *ast.CallExpr:
		return exprText(x.Fun) + "(...)"
	case *ast.StarExpr:
		return "*" + exprText(x.X)
	default:
		return "?"
	}
}

func sortedHeld(m map[string]heldRef) []heldRef {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]heldRef, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

// reportCycles finds every strongly-connected component of the lock graph
// with a cycle, renders one representative cycle per component with a
// witness per edge, and applies //tsanrec:allow(lockorder) waivers: a
// cycle any of whose edge positions is covered by a waiver span is
// intentional.
func (ix *interState) reportCycles(edges map[[2]string]lockEdge) []Finding {
	adj := make(map[string][]string)
	nodes := make(map[string]bool)
	for k := range edges {
		nodes[k[0]], nodes[k[1]] = true, true
		adj[k[0]] = append(adj[k[0]], k[1])
	}
	var keys []string
	for n := range nodes {
		keys = append(keys, n)
	}
	sort.Strings(keys)
	for _, n := range keys {
		sort.Strings(adj[n])
	}

	var findings []Finding
	for _, scc := range tarjanSCC(keys, adj) {
		inSCC := make(map[string]bool, len(scc))
		for _, n := range scc {
			inSCC[n] = true
		}
		if len(scc) == 1 {
			if _, self := edges[[2]string{scc[0], scc[0]}]; !self {
				continue
			}
		}
		cycle := findCycle(scc[0], adj, inSCC)
		if cycle == nil {
			continue
		}
		var cycleEdges []lockEdge
		waived := false
		for i := 0; i < len(cycle); i++ {
			e := edges[[2]string{cycle[i], cycle[(i+1)%len(cycle)]}]
			cycleEdges = append(cycleEdges, e)
			if ix.prog.allowWaived("lockorder", e.toPos) || ix.prog.allowWaived("lockorder", e.fromHeld.acqPos) {
				waived = true
			}
		}
		if waived {
			continue
		}
		findings = append(findings, ix.cycleFinding(cycleEdges))
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return findings
}

// cycleFinding renders one cycle, anchored at its smallest witness
// position so the report is stable across runs.
func (ix *interState) cycleFinding(cycleEdges []lockEdge) Finding {
	anchor := cycleEdges[0].toPos
	for _, e := range cycleEdges[1:] {
		if posLess(e.toPos, anchor) {
			anchor = e.toPos
		}
	}
	var ring []string
	for _, e := range cycleEdges {
		ring = append(ring, e.fromDisp)
	}
	ring = append(ring, cycleEdges[0].fromDisp)

	var parts []string
	for _, e := range cycleEdges {
		w := fmt.Sprintf("%s acquired at %s in %s while holding %s (acquired at %s in %s",
			e.toDisp, ix.relPos(e.toPos), e.toFn, e.fromDisp,
			ix.relPos(e.fromHeld.acqPos), e.fromHeld.acqFn)
		if len(e.fromHeld.chain) > 0 {
			var hops []string
			for _, p := range e.fromHeld.chain {
				hops = append(hops, ix.relPos(p))
			}
			w += ", held across calls at " + strings.Join(hops, ", ")
		}
		w += ")"
		parts = append(parts, w)
	}
	return Finding{
		Pos:      anchor,
		Check:    "lockorder",
		Severity: SeverityError,
		Message: fmt.Sprintf("lock-order cycle %s: %s; threads acquiring along different arcs can each hold one lock and block forever on the next, and the controlled scheduler will find that schedule; acquire in one global order or waive with //tsanrec:allow(lockorder)",
			strings.Join(ring, " -> "), strings.Join(parts, "; ")),
	}
}

// relPos renders a position module-relative, keeping messages stable
// across checkouts.
func (ix *interState) relPos(p token.Position) string {
	name := p.Filename
	if rel, err := filepath.Rel(ix.prog.ModuleRoot, name); err == nil && !strings.HasPrefix(rel, "..") {
		name = filepath.ToSlash(rel)
	}
	return fmt.Sprintf("%s:%d", name, p.Line)
}

func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

// tarjanSCC returns the strongly-connected components of the graph in a
// deterministic order (roots visited in sorted key order).
func tarjanSCC(keys []string, adj map[string][]string) [][]string {
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var sccs [][]string
	next := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Strings(scc)
			sccs = append(sccs, scc)
		}
	}
	for _, v := range keys {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return sccs
}

// findCycle returns a cycle through start restricted to the SCC, as the
// ordered list of vertices (start first, last edge returning to start).
func findCycle(start string, adj map[string][]string, inSCC map[string]bool) []string {
	var path []string
	onPath := make(map[string]bool)
	var dfs func(v string) []string
	dfs = func(v string) []string {
		path = append(path, v)
		onPath[v] = true
		for _, w := range adj[v] {
			if !inSCC[w] {
				continue
			}
			if w == start {
				return append([]string{}, path...)
			}
			if onPath[w] {
				continue
			}
			if c := dfs(w); c != nil {
				return c
			}
		}
		path = path[:len(path)-1]
		onPath[v] = false
		return nil
	}
	return dfs(start)
}
