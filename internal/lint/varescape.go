package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// VarEscape flags shared mutable state that bypasses the instrumented
// data API: a global or closure-captured variable that is accessed from
// more than one thread body, with at least one plain (uninstrumented)
// write among those accesses. Such accesses are invisible to the vector
// clocks and the race detector, and — worse for replay — their
// interleaving is decided by the Go memory model, not the recorded
// schedule, so two replays of the same demo can legitimately disagree.
// Route the state through core.Var, core.Atomic64, or a conc container.
//
// Heuristics, documented rather than hidden:
//   - "thread body" means any function whose parameters include a
//     *core.Thread — the static signature of running under the scheduler;
//   - declaring writes (`x := ...`) do not count: initialisation before
//     Spawn is published by the spawn happens-before edge;
//   - read-only sharing is allowed for the same reason;
//   - values whose type lives in the runtime's own packages (core.Var,
//     conc.Queue, env.World, ...) are the instrumented channel and are
//     exempt.
type VarEscape struct{}

// Name implements Analyzer.
func (VarEscape) Name() string { return "varescape" }

// Doc implements Analyzer.
func (VarEscape) Doc() string {
	return "globals/captured variables written and shared across thread bodies must go through core.Var/core.Atomic*"
}

// safeTypePkgs are package-path suffixes whose types are instrumented (or
// host-side) machinery rather than raw shared state.
var safeTypePkgs = []string{
	"internal/core", "internal/conc", "internal/env", "internal/demo",
	"internal/prng", "internal/stats", "internal/sched", "internal/tsan",
	"internal/vclock", "internal/rle", "internal/rrmodel",
}

// access records one touch of a tracked object from a thread body.
type access struct {
	body  ast.Node
	write bool
	pos   string
}

// Run implements Analyzer.
func (VarEscape) Run(prog *Program, pkg *Package) []Finding {
	if !prog.Instrumented(pkg) {
		return nil
	}
	funcs := threadFuncs(pkg)
	if len(funcs) == 0 {
		return nil
	}
	accesses := make(map[*types.Var][]access)
	for _, file := range pkg.Files {
		parents := buildParents(file)
		writeRoots := collectWriteRoots(file)
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := pkg.Info.Uses[id].(*types.Var)
			if !ok || v.IsField() {
				return true
			}
			tf := enclosingThreadFunc(parents, funcs, id)
			if tf == nil {
				return true
			}
			pos := prog.position(id.Pos())
			if pkg.externalSpan(pos) {
				return true
			}
			if !capturedBy(v, tf, pkg) {
				return true
			}
			if safeSharedType(v.Type()) {
				return true
			}
			accesses[v] = append(accesses[v], access{
				body:  tf,
				write: writeRoots[id],
				pos:   fmt.Sprintf("%s:%d", shortFile(pos.Filename), pos.Line),
			})
			return true
		})
	}

	var objs []*types.Var
	for v := range accesses {
		objs = append(objs, v)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].Pos() < objs[j].Pos() })

	var fs []Finding
	for _, v := range objs {
		as := accesses[v]
		bodies := make(map[ast.Node]bool)
		anyWrite := false
		var sites []string
		for _, a := range as {
			bodies[a.body] = true
			anyWrite = anyWrite || a.write
			kind := "read"
			if a.write {
				kind = "write"
			}
			sites = append(sites, a.pos+" ("+kind+")")
		}
		if len(bodies) < 2 || !anyWrite {
			continue
		}
		if len(sites) > 4 {
			sites = append(sites[:4], "...")
		}
		fs = append(fs, Finding{
			Pos:      prog.position(v.Pos()),
			Check:    "varescape",
			Severity: SeverityError,
			Message: fmt.Sprintf("%q is shared across %d thread bodies with an uninstrumented write (%s): the accesses are invisible to the recorder and race detector; use core.Var/core.Atomic* (or waive with //tsanrec:allow(varescape))",
				v.Name(), len(bodies), strings.Join(sites, ", ")),
		})
	}
	return fs
}

// collectWriteRoots marks identifiers that are the root of a write target:
// the x in `x = ...`, `x.f = ...`, `x[i] = ...`, `x++`, `&x`, and range
// assignment targets. Declarations (`x := ...`) are initialisation, not
// shared-state writes, and are excluded.
func collectWriteRoots(file *ast.File) map[*ast.Ident]bool {
	writes := make(map[*ast.Ident]bool)
	mark := func(e ast.Expr) {
		if id := rootIdent(e); id != nil {
			writes[id] = true
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok.String() == ":=" {
				return true
			}
			for _, lhs := range st.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(st.X)
		case *ast.UnaryExpr:
			if st.Op.String() == "&" {
				// Taking the address lets anyone write through it; treat
				// conservatively as a write.
				mark(st.X)
			}
		case *ast.RangeStmt:
			if st.Tok.String() == "=" {
				mark(st.Key)
				mark(st.Value)
			}
		}
		return true
	})
	return writes
}

// rootIdent peels selectors, indexes, stars and parens down to the base
// identifier of an lvalue.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// capturedBy reports whether v is shared state from tf's point of view: a
// package-level variable, or a local declared outside tf's span (i.e.
// captured by the closure).
func capturedBy(v *types.Var, tf ast.Node, pkg *Package) bool {
	if v.Parent() == pkg.Types.Scope() {
		return true
	}
	return v.Pos() < tf.Pos() || v.Pos() > tf.End()
}

// safeSharedType unwraps pointers, slices, arrays and maps and reports
// whether the element type belongs to the runtime's own packages (the
// instrumented API) — such values are safe to share.
func safeSharedType(t types.Type) bool {
	for i := 0; i < 8; i++ {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		default:
			i = 8
		}
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	for _, sfx := range safeTypePkgs {
		if pathHasSuffix(obj.Pkg().Path(), sfx) {
			return true
		}
	}
	return false
}

// shortFile trims the module-root prefix for compact finding messages.
func shortFile(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
