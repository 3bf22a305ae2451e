package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// SlabRef enforces the uint32-handle discipline around slab-backed
// storage. Types annotated //dnhunter:slab (the flows slab element, the
// resolver pairNode, the ring entry arenas) live in growable slices:
// any *T into one of them is invalidated the moment the slab grows, so
// such pointers must stay statement-scoped. References across
// statements use uint32 handles re-resolved through the accessor.
//
// The analyzer flags every way a *T can outlive a statement: declaring
// a struct field (or slice/array/map/channel element) of type *T,
// assigning a *T to anything but a function-local variable, returning
// it, sending it on a channel, appending it to a slice, or placing it
// in a composite literal. The sanctioned narrow accessors (`at`)
// suppress their return with //dnhunter:slab-ok <reason>.
var SlabRef = &analysis.Analyzer{
	Name: "slabref",
	Doc:  "flag slab-slot pointers (//dnhunter:slab element types) that can outlive a statement",
	Run:  runSlabRef,
}

func runSlabRef(pass *analysis.Pass) error {
	ds := scanDirectives(pass)

	// The package's slab-marked type objects.
	slabs := make(map[types.Object]bool)
	for obj, list := range ds.types {
		for _, d := range list {
			if d.name == dirSlab {
				slabs[obj] = true
			}
		}
	}
	if len(slabs) == 0 {
		return nil
	}

	isSlabPtr := func(t types.Type) bool {
		p, ok := t.(*types.Pointer)
		if !ok {
			return false
		}
		n, ok := p.Elem().(*types.Named)
		return ok && slabs[n.Obj()]
	}

	info := pass.TypesInfo
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				checkSlabFields(pass, ds, n, isSlabPtr)
			case *ast.AssignStmt:
				checkSlabAssign(pass, ds, n, isSlabPtr)
			case *ast.ReturnStmt:
				for _, r := range n.Results {
					if t := info.TypeOf(r); t != nil && isSlabPtr(t) {
						ds.report(r.Pos(), "returning a slab-slot pointer lets it outlive slab growth; return a uint32 handle (or justify a statement-scoped accessor with %s%s <reason>)", directivePrefix, dirSlabOK)
					}
				}
			case *ast.SendStmt:
				if t := info.TypeOf(n.Value); t != nil && isSlabPtr(t) {
					ds.report(n.Value.Pos(), "sending a slab-slot pointer across a channel outlives slab growth; send a uint32 handle")
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
					if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
						for _, arg := range n.Args[1:] {
							if t := info.TypeOf(arg); t != nil && isSlabPtr(t) {
								ds.report(arg.Pos(), "appending a slab-slot pointer stores it past slab growth; store a uint32 handle")
							}
						}
					}
				}
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					v := elt
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						v = kv.Value
					}
					if t := info.TypeOf(v); t != nil && isSlabPtr(t) {
						ds.report(v.Pos(), "storing a slab-slot pointer in a composite literal outlives slab growth; store a uint32 handle")
					}
				}
			}
			return true
		})
	}
	return nil
}

// checkSlabFields flags struct fields whose type can hold a slab-slot
// pointer: a field is storage by definition, so *T never belongs there.
func checkSlabFields(pass *analysis.Pass, ds *directives, st *ast.StructType, isSlabPtr func(types.Type) bool) {
	for _, field := range st.Fields.List {
		t := pass.TypesInfo.TypeOf(field.Type)
		if t == nil {
			continue
		}
		if containsSlabPtr(t, isSlabPtr, 0) {
			ds.report(field.Pos(), "struct field holds a slab-slot pointer, which dangles after slab growth; store a uint32 handle")
		}
	}
}

// containsSlabPtr reports whether t is, or directly contains, a
// slab-slot pointer (through slices, arrays, maps, channels, and the type
// arguments of a generic container).
func containsSlabPtr(t types.Type, isSlabPtr func(types.Type) bool, depth int) bool {
	if depth > 4 {
		return false
	}
	if isSlabPtr(t) {
		return true
	}
	if n, ok := t.(*types.Named); ok {
		for i := 0; i < n.TypeArgs().Len(); i++ {
			if containsSlabPtr(n.TypeArgs().At(i), isSlabPtr, depth+1) {
				return true
			}
		}
	}
	switch t := t.Underlying().(type) {
	case *types.Slice:
		return containsSlabPtr(t.Elem(), isSlabPtr, depth+1)
	case *types.Array:
		return containsSlabPtr(t.Elem(), isSlabPtr, depth+1)
	case *types.Map:
		return containsSlabPtr(t.Key(), isSlabPtr, depth+1) || containsSlabPtr(t.Elem(), isSlabPtr, depth+1)
	case *types.Chan:
		return containsSlabPtr(t.Elem(), isSlabPtr, depth+1)
	}
	return false
}

// checkSlabAssign flags assignments of slab-slot pointers to anything
// but function-local variables. A statement-scoped local (`f := t.at(i)`)
// is the sanctioned way to touch a slot; fields, elements, dereferences,
// and package-level variables persist past the statement.
func checkSlabAssign(pass *analysis.Pass, ds *directives, stmt *ast.AssignStmt, isSlabPtr func(types.Type) bool) {
	info := pass.TypesInfo
	if len(stmt.Lhs) != len(stmt.Rhs) {
		return // tuple assignment from a call: covered at the return site
	}
	for i, rhs := range stmt.Rhs {
		t := info.TypeOf(rhs)
		if t == nil || !isSlabPtr(t) {
			continue
		}
		if isLocalVar(pass, stmt.Lhs[i]) {
			continue
		}
		ds.report(stmt.Lhs[i].Pos(), "storing a slab-slot pointer outside a local variable outlives slab growth; store a uint32 handle")
	}
}

// isLocalVar reports whether e names a function-local variable (or the
// blank identifier).
func isLocalVar(pass *analysis.Pass, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	if id.Name == "_" {
		return true
	}
	v, ok := pass.TypesInfo.ObjectOf(id).(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	return v.Parent() != nil && v.Parent() != pass.Pkg.Scope()
}
