package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// pathHasSuffix reports whether a package path is pkg or ends in /pkg —
// matching "repro/internal/core" against suffix "internal/core" without
// hard-coding the module name (fixtures share the module path anyway, but
// analyzers should not care).
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// namedFrom unwraps pointers and reports whether t is (a pointer to) the
// named type pkgSuffix.name.
func namedFrom(t types.Type, pkgSuffix, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Name() != name {
		return false
	}
	return pathHasSuffix(obj.Pkg().Path(), pkgSuffix)
}

// isCoreThread reports whether t is *core.Thread.
func isCoreThread(t types.Type) bool { return namedFrom(t, "internal/core", "Thread") }

// threadFuncs collects every function in the package whose parameter list
// includes a *core.Thread — the static signature of "code that runs as a
// scheduler thread". Returns the body nodes keyed by the func node.
func threadFuncs(pkg *Package) map[ast.Node]*ast.BlockStmt {
	out := make(map[ast.Node]*ast.BlockStmt)
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var ftype *ast.FuncType
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				ftype, body = fn.Type, fn.Body
			case *ast.FuncLit:
				ftype, body = fn.Type, fn.Body
			default:
				return true
			}
			if body == nil || ftype.Params == nil {
				return true
			}
			for _, field := range ftype.Params.List {
				if tv, ok := pkg.Info.Types[field.Type]; ok && isCoreThread(tv.Type) {
					out[n] = body
					break
				}
			}
			return true
		})
	}
	return out
}

// parentMap records each node's syntactic parent within a file.
type parentMap map[ast.Node]ast.Node

func buildParents(file *ast.File) parentMap {
	parents := make(parentMap)
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// enclosingThreadFunc walks up from n to the innermost enclosing function
// that is a thread function (per funcs), or nil.
func enclosingThreadFunc(parents parentMap, funcs map[ast.Node]*ast.BlockStmt, n ast.Node) ast.Node {
	for cur := n; cur != nil; cur = parents[cur] {
		switch cur.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			if _, ok := funcs[cur]; ok {
				return cur
			}
		}
	}
	return nil
}

// position converts a token.Pos through the program's FileSet.
func (p *Program) position(pos token.Pos) token.Position { return p.Fset.Position(pos) }
