package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
)

// This file is the interprocedural layer under lockorder: a whole-program,
// type-based call graph over every loaded package. The resolution is
// CHA-style — sound but imprecise: a static call resolves to its one
// target; an interface method call resolves to every program method that
// could implement it; a call through a func value resolves to every
// program function (declaration or literal) with an identical signature.
// Over-approximating the callee set can only add spurious lock-order edges
// — it can never hide a deadlock, which is the direction the analysis must
// err in.

// funcNode is one program function with a body: a declaration, a method,
// or a function literal.
type funcNode struct {
	pkg  *Package
	node ast.Node // *ast.FuncDecl or *ast.FuncLit
	body *ast.BlockStmt
	sig  *types.Signature
	name string // diagnostic name, e.g. "pkg.(*T).M" or "pkg.func@file:12"
}

// interState is the lazily-built whole-program state shared by the
// interprocedural analyzers. It is rebuilt whenever another package is
// loaded into the Program, so incremental fixture loading in tests always
// analyzes the current package set.
type interState struct {
	prog      *Program
	nPackages int // invalidation token: len(prog.Packages) at build time

	funcs   []*funcNode
	byObj   map[*types.Func]*funcNode
	byNode  map[ast.Node]*funcNode
	parents map[*ast.File]parentMap

	// named holds every non-interface named type declared in the program,
	// for interface-call CHA.
	named []*types.Named

	// lockNames maps the variable or struct field a lock is bound to at
	// its creation site to the constant name string passed to
	// NewMutex (the lock's global identity).
	lockNames map[*types.Var]string

	// Cached analysis results (computed on demand).
	lockFindings []Finding
	lockDone     bool
}

// interState returns the whole-program state, rebuilding it if packages
// were loaded since the last build.
func (p *Program) interState() *interState {
	if p.inter != nil && p.inter.nPackages == len(p.Packages) {
		return p.inter
	}
	ix := &interState{
		prog:      p,
		nPackages: len(p.Packages),
		byObj:     make(map[*types.Func]*funcNode),
		byNode:    make(map[ast.Node]*funcNode),
		parents:   make(map[*ast.File]parentMap),
		lockNames: make(map[*types.Var]string),
	}
	ix.build()
	p.inter = ix
	return ix
}

// build indexes every function body, named type and lock-name binding in
// the program.
func (ix *interState) build() {
	for _, pkg := range ix.prog.Packages {
		for _, file := range pkg.Files {
			ix.parents[file] = buildParents(file)
			ix.indexFile(pkg, file)
		}
	}
	sort.Slice(ix.funcs, func(i, j int) bool { return ix.funcs[i].node.Pos() < ix.funcs[j].node.Pos() })
}

func (ix *interState) indexFile(pkg *Package, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			if x.Body == nil {
				return true
			}
			obj, _ := pkg.Info.Defs[x.Name].(*types.Func)
			if obj == nil {
				return true
			}
			fn := &funcNode{pkg: pkg, node: x, body: x.Body,
				sig: obj.Type().(*types.Signature), name: funcDisplayName(pkg, obj)}
			ix.funcs = append(ix.funcs, fn)
			ix.byObj[obj] = fn
			ix.byNode[x] = fn
		case *ast.FuncLit:
			tv, ok := pkg.Info.Types[x]
			if !ok {
				return true
			}
			sig, ok := tv.Type.(*types.Signature)
			if !ok {
				return true
			}
			pos := ix.prog.position(x.Pos())
			fn := &funcNode{pkg: pkg, node: x, body: x.Body, sig: sig,
				name: fmt.Sprintf("%s.func@%s:%d", pkg.Types.Name(), shortFile(pos.Filename), pos.Line)}
			ix.funcs = append(ix.funcs, fn)
			ix.byNode[x] = fn
		case *ast.TypeSpec:
			if obj, ok := pkg.Info.Defs[x.Name].(*types.TypeName); ok && !obj.IsAlias() {
				if named, ok := obj.Type().(*types.Named); ok && !types.IsInterface(named) {
					ix.named = append(ix.named, named)
				}
			}
		case *ast.CallExpr:
			ix.recordLockName(pkg, file, x)
		}
		return true
	})
}

func funcDisplayName(pkg *Package, obj *types.Func) string {
	if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
		return fmt.Sprintf("%s.(%s).%s", pkg.Types.Name(),
			types.TypeString(recv.Type(), types.RelativeTo(pkg.Types)), obj.Name())
	}
	return pkg.Types.Name() + "." + obj.Name()
}

// recordLockName binds the target of `mu := rt.NewMutex("name")` (or a
// struct-literal field, plain assignment, or var declaration) to the
// constant name string, giving the lock an identity that survives across
// functions: every Lock through any alias of that variable/field is the
// same vertex in the lock-order graph.
func (ix *interState) recordLockName(pkg *Package, file *ast.File, call *ast.CallExpr) {
	name, ok := lockCreationName(pkg.Info, call)
	if !ok {
		return
	}
	target := bindTarget(pkg, ix.parents[file], call)
	if target == nil {
		return
	}
	if _, clash := ix.lockNames[target]; clash {
		// Two creation sites bind to the same variable; the first binding
		// wins deterministically (file order) — they are one lock identity
		// to the analysis either way.
		return
	}
	ix.lockNames[target] = name
}

// lockCreationName reports the constant name argument if call constructs a
// core.Mutex.
func lockCreationName(info *types.Info, call *ast.CallExpr) (string, bool) {
	if _, ok := methodOn(info, call, "internal/core", "Runtime", "NewMutex"); ok {
		return constStringArg(info, call, 0)
	}
	return "", false
}

// constStringArg returns the constant string value of call argument idx.
func constStringArg(info *types.Info, call *ast.CallExpr, idx int) (string, bool) {
	if idx >= len(call.Args) {
		return "", false
	}
	tv, ok := info.Types[call.Args[idx]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// calleeFuncObj resolves call's callee to its declared *types.Func when
// the call is static (direct function or method call), or nil. Generic
// instantiations resolve to their origin declaration.
func calleeFuncObj(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f.Origin()
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f.Origin()
		}
	case *ast.IndexExpr: // explicit generic instantiation f[T](...)
		if id, ok := unparen(fun.X).(*ast.Ident); ok {
			if f, ok := info.Uses[id].(*types.Func); ok {
				return f.Origin()
			}
		}
	case *ast.IndexListExpr: // f[T1, T2](...)
		if id, ok := unparen(fun.X).(*ast.Ident); ok {
			if f, ok := info.Uses[id].(*types.Func); ok {
				return f.Origin()
			}
		}
	}
	return nil
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// bindTarget finds the variable or struct field the value produced by
// expr is bound to: the x in `x := expr` / `x = expr` / `var x = expr`,
// or the field f in a composite literal `T{f: expr}`.
func bindTarget(pkg *Package, parents parentMap, expr ast.Expr) *types.Var {
	parent := parents[expr]
	for {
		p, ok := parent.(*ast.ParenExpr)
		if !ok {
			break
		}
		parent = parents[p]
	}
	switch p := parent.(type) {
	case *ast.AssignStmt:
		if len(p.Lhs) != len(p.Rhs) {
			return nil
		}
		for i, rhs := range p.Rhs {
			if rhs == expr {
				return lvalueObj(pkg, p.Lhs[i])
			}
		}
	case *ast.ValueSpec:
		for i, v := range p.Values {
			if v == expr && i < len(p.Names) {
				if obj, ok := pkg.Info.Defs[p.Names[i]].(*types.Var); ok {
					return obj
				}
			}
		}
	case *ast.KeyValueExpr:
		if p.Value == expr {
			if key, ok := p.Key.(*ast.Ident); ok {
				if obj, ok := pkg.Info.Uses[key].(*types.Var); ok && obj.IsField() {
					return obj
				}
			}
		}
	}
	return nil
}

// lvalueObj resolves an assignment target to its variable or field object.
func lvalueObj(pkg *Package, e ast.Expr) *types.Var {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		if obj, ok := pkg.Info.Defs[x].(*types.Var); ok {
			return obj
		}
		if obj, ok := pkg.Info.Uses[x].(*types.Var); ok {
			return obj
		}
	case *ast.SelectorExpr:
		if obj, ok := pkg.Info.Uses[x.Sel].(*types.Var); ok && obj.IsField() {
			return obj
		}
	}
	return nil
}

// callees resolves a call expression to its candidate program functions.
// Calls that cannot reach loaded program code (conversions, builtins,
// stdlib, module functions whose bodies are not loaded) resolve to none.
func (ix *interState) callees(pkg *Package, call *ast.CallExpr) []*funcNode {
	// Immediately-invoked or directly-called literal.
	if lit, ok := unparen(call.Fun).(*ast.FuncLit); ok {
		if fn := ix.byNode[lit]; fn != nil {
			return []*funcNode{fn}
		}
		return nil
	}
	// Conversions and builtins are not calls into program code.
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return nil
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			return nil
		}
	}
	// Static function or method call.
	if f := calleeFuncObj(pkg.Info, call); f != nil {
		sig := f.Type().(*types.Signature)
		// A method whose receiver is an interface dispatches dynamically:
		// widen to every program method that could implement it.
		if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
			return ix.implementers(recv.Type().Underlying().(*types.Interface), f)
		}
		if fn := ix.byObj[f]; fn != nil {
			return []*funcNode{fn}
		}
		return nil
	}
	// Func-value call: CHA over signature-identical program functions.
	if tv, ok := pkg.Info.Types[call.Fun]; ok {
		if sig, ok := tv.Type.(*types.Signature); ok {
			return ix.signatureMatches(sig)
		}
	}
	return nil
}

// implementers returns every program method implementing interface method
// m on a type satisfying iface. The lookup is qualified by m's package so
// unexported interface methods resolve to their same-package implementations.
func (ix *interState) implementers(iface *types.Interface, m0 *types.Func) []*funcNode {
	var out []*funcNode
	seen := make(map[*funcNode]bool)
	for _, n := range ix.named {
		ptr := types.NewPointer(n)
		if !types.Implements(n, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, m0.Pkg(), m0.Name())
		m, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if fn := ix.byObj[m.Origin()]; fn != nil && !seen[fn] {
			seen[fn] = true
			out = append(out, fn)
		}
	}
	return out
}

// signatureMatches returns every program function whose signature is
// identical to sig. Methods and generic functions are excluded: a func
// value of a method is already bound (its value signature has no receiver
// and cannot be recovered here without widening to everything), and CHA
// over uninstantiated generics is not meaningful.
func (ix *interState) signatureMatches(sig *types.Signature) []*funcNode {
	var out []*funcNode
	for _, fn := range ix.funcs {
		if fn.sig.Recv() != nil || fn.sig.TypeParams() != nil {
			continue
		}
		if types.Identical(fn.sig, sig) {
			out = append(out, fn)
		}
	}
	return out
}

// allowWaived reports whether an //tsanrec:allow(check) span anywhere in
// the program covers pos, marking the directive used. Whole-program
// analyzers use it to waive findings whose evidence spans packages.
func (p *Program) allowWaived(check string, pos token.Position) bool {
	for _, pkg := range p.Packages {
		for _, d := range pkg.directives {
			if d.malformed == "" && d.verb == "allow" && d.check == check && posWithin(pos, d.spanStart, d.spanEnd) {
				d.used = true
				return true
			}
		}
	}
	return false
}
