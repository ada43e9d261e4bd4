// Package wirecontract keeps protocol families on the wire path. A family
// registered with longitudinal.RegisterFamily whose protocol type silently
// stops implementing a wire interface fails only at run time — a Stream
// refuses a protocol without TallyProtocol — with no compile error. The
// analyzer makes that loud, with no escape hatch:
//
//   - Every concrete protocol type returned by a family's Build hook must
//     carry a package-level compile-time assertion
//     `var _ longitudinal.SpecProtocol = (*T)(nil)` — and must implement
//     the interface in the first place.
//   - The protocol must implement TallyProtocol, the only ingestion path,
//     and carry the same assertion for it.
//
// Clients and aggregators need no rule: AppendReport and WireRegistration
// are methods of the Client interface, and the round-state accessor
// (Tally) of the Aggregator interface, so NewClient and NewAggregator
// cannot compile without them.
//
// Resolution is intra-package and one level deep: Build bodies whose
// returns have concrete static types (the idiom everywhere in this
// repository) are resolved; a hook returning an interface-typed expression
// that cannot be resolved is skipped, not flagged.
package wirecontract

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/loloha-ldp/loloha/lint/analysis"
)

// Analyzer is the wirecontract pass.
var Analyzer = &analysis.Analyzer{
	Name: "wirecontract",
	Doc:  "registered families must implement and assert their wire interfaces",
	Run:  run,
}

// registryPkg is the import-path suffix of the registry package.
const registryPkg = "internal/longitudinal"

// assertion is one package-level `var _ Iface = value`.
type assertion struct {
	iface    types.Type
	concrete types.Type
}

func run(pass *analysis.Pass) error {
	asserts := collectAssertions(pass)
	reported := map[string]bool{} // (type, iface) dedup across families
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			path := fn.Pkg().Path()
			if path != registryPkg && !strings.HasSuffix(path, "/"+registryPkg) {
				return true
			}
			if fn.Name() == "RegisterFamily" {
				checkFamily(pass, asserts, reported, call, fn.Pkg())
			}
			return true
		})
	}
	return nil
}

func checkFamily(pass *analysis.Pass, asserts []assertion, reported map[string]bool, call *ast.CallExpr, registry *types.Package) {
	if len(call.Args) < 2 {
		return
	}
	info, ok := ast.Unparen(call.Args[1]).(*ast.CompositeLit)
	if !ok {
		return
	}
	var build ast.Expr
	for _, el := range info.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Build" {
			build = kv.Value
		}
	}
	if build == nil {
		return
	}
	specIface := lookupIface(registry, "SpecProtocol")
	tallyIface := lookupIface(registry, "TallyProtocol")

	for _, proto := range resolveReturns(pass, build) {
		key := proto.String()
		if reported[key] {
			continue
		}
		reported[key] = true

		if specIface != nil {
			switch {
			case !implements(proto, specIface):
				pass.Reportf(call.Pos(), "%s does not implement SpecProtocol; spec round-trips (SpecOf, registry rebuilds) will fail", proto)
			case !asserted(asserts, specIface, proto):
				pass.Reportf(call.Pos(), "missing compile-time assertion: var _ SpecProtocol = (%s)(nil)", proto)
			}
		}
		if tallyIface != nil {
			switch {
			case !implements(proto, tallyIface):
				pass.Reportf(call.Pos(), "%s does not implement TallyProtocol: a Stream cannot ingest it; implement WireTallier", proto)
			case !asserted(asserts, tallyIface, proto):
				pass.Reportf(call.Pos(), "missing compile-time assertion: var _ TallyProtocol = (%s)(nil)", proto)
			}
		}
	}
}

// collectAssertions gathers every package-level `var _ Iface = value`.
func collectAssertions(pass *analysis.Pass) []assertion {
	var out []assertion
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || vs.Type == nil || len(vs.Names) != 1 || vs.Names[0].Name != "_" || len(vs.Values) != 1 {
					continue
				}
				iface := pass.TypesInfo.TypeOf(vs.Type)
				if iface == nil {
					continue
				}
				if _, ok := iface.Underlying().(*types.Interface); !ok {
					continue
				}
				concrete := pass.TypesInfo.TypeOf(vs.Values[0])
				if concrete == nil {
					continue
				}
				out = append(out, assertion{iface: iface, concrete: concrete})
			}
		}
	}
	return out
}

func asserted(asserts []assertion, iface *types.Interface, concrete types.Type) bool {
	for _, a := range asserts {
		if !types.Identical(a.iface.Underlying(), iface) {
			continue
		}
		if types.Identical(a.concrete, concrete) || types.Identical(a.concrete, types.NewPointer(concrete)) {
			return true
		}
	}
	return false
}

func implements(t types.Type, iface *types.Interface) bool {
	if types.Implements(t, iface) {
		return true
	}
	if _, isPtr := t.(*types.Pointer); !isPtr {
		return types.Implements(types.NewPointer(t), iface)
	}
	return false
}

func lookupIface(pkg *types.Package, name string) *types.Interface {
	obj := pkg.Scope().Lookup(name)
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[f]
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[f.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// resolveReturns collects the concrete static types of the first result of
// every return in a Build hook (a func literal, or a named function whose
// declared first result is already concrete).
func resolveReturns(pass *analysis.Pass, build ast.Expr) []types.Type {
	var out []types.Type
	add := func(t types.Type) {
		t = firstOfTuple(t)
		if t == nil {
			return
		}
		if _, isIface := t.Underlying().(*types.Interface); isIface {
			return // unresolvable: the hook genuinely returns an interface
		}
		for _, seen := range out {
			if types.Identical(seen, t) {
				return
			}
		}
		out = append(out, t)
	}
	switch b := ast.Unparen(build).(type) {
	case *ast.FuncLit:
		forEachReturn(b.Body, func(ret *ast.ReturnStmt) {
			if len(ret.Results) == 0 {
				return
			}
			tv := pass.TypesInfo.Types[ret.Results[0]]
			if tv.IsNil() {
				return
			}
			add(tv.Type)
		})
	default:
		if sig, ok := pass.TypesInfo.TypeOf(build).(*types.Signature); ok && sig.Results().Len() > 0 {
			add(sig.Results().At(0).Type())
		}
	}
	return out
}

// forEachReturn visits returns belonging to body itself, not to nested
// function literals.
func forEachReturn(body *ast.BlockStmt, visit func(*ast.ReturnStmt)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			visit(n)
		}
		return true
	})
}

func firstOfTuple(t types.Type) types.Type {
	if tup, ok := t.(*types.Tuple); ok {
		if tup.Len() == 0 {
			return nil
		}
		return tup.At(0).Type()
	}
	return t
}
