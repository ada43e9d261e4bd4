// Package noalloc enforces the engine's zero-alloc hot-path contract.
//
// A function whose doc comment carries //loloha:noalloc must not execute a
// known-allocating construct on its steady path: make/new, map and slice
// literals, address-of composite literal, closures, go statements, string
// concatenation, string<->[]byte conversions, boxing a non-pointer-shaped
// value into an interface, append to anything but its own first argument,
// or a call to a function that is neither //loloha:noalloc in the same
// package nor in the cross-package trust table below.
//
// Branch discipline: an if (or else) block whose last statement terminates
// (return, continue, break, goto, panic) is treated as an error/cold exit
// and skipped — annotated hot functions report errors via early exits, and
// those paths may allocate. //loloha:steady on the if statement forces the
// block to be checked anyway (used where the steady path itself ends in a
// return). //loloha:alloc-ok on a statement exempts that one subtree:
// amortized cold paths such as first-use cache fills.
//
// The trust table is the cross-package frontier: every in-repo entry is
// itself annotated //loloha:noalloc and checked when its own package is
// analyzed; stdlib entries are vetted by the AllocsPerRun suites.
package noalloc

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"

	"github.com/loloha-ldp/loloha/lint/analysis"
	"github.com/loloha-ldp/loloha/lint/annot"
)

// Analyzer is the noalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "noalloc",
	Doc:  "//loloha:noalloc functions must not allocate on their steady path",
	Run:  run,
}

// trustRule marks calls that are allowed from noalloc code. pkg is matched
// as a full import path or a path suffix (so fixtures and forks keep
// working); recv is the named receiver type ("" = package-level function,
// "*" = any); name "*" = any function/method of the package.
type trustRule struct{ pkg, recv, name string }

var trustTable = []trustRule{
	// Pure stdlib math.
	{"math", "*", "*"},
	{"math/bits", "*", "*"},
	// Fixed-width codecs write into caller buffers.
	{"encoding/binary", "littleEndian", "*"},
	{"encoding/binary", "bigEndian", "*"},
	{"encoding/binary", "", "Uvarint"},
	{"encoding/binary", "", "PutUvarint"},
	{"encoding/binary", "", "Varint"},
	{"encoding/binary", "", "PutVarint"},
	// errors.Join allocates only when at least one error is non-nil, i.e.
	// only off the steady path; errors.Is walks the chain without
	// allocating (and the steady-state chain is nil).
	{"errors", "", "Join"},
	{"errors", "", "Is"},
	// crc32's IEEE fast path builds its slicing-by-8 table once under a
	// sync.Once at first use; every subsequent checksum is table lookups
	// over the caller's bytes (vetted by the envelope-reader AllocsPerRun
	// pin).
	{"hash/crc32", "", "ChecksumIEEE"},
	// io.ReadFull fills a caller buffer; any allocation belongs to the
	// underlying Reader (the netserver read loop hands it a bufio.Reader
	// with a fixed buffer, vetted by the frame-path AllocsPerRun pin).
	{"io", "", "ReadFull"},
	// Lock/pool operations; Pool.Get is the amortized scratch contract.
	{"sync", "Mutex", "*"},
	{"sync", "RWMutex", "*"},
	{"sync", "Pool", "*"},
	// Deterministic randomness substrate (word-level API only; the
	// slice-returning helpers like SampleWithoutReplacement are absent).
	{"internal/randsrc", "", "Mix64"},
	{"internal/randsrc", "", "Derive"},
	{"internal/randsrc", "", "StreamWord"},
	{"internal/randsrc", "", "BernoulliThreshold"},
	{"internal/randsrc", "", "BernoulliWord"},
	{"internal/randsrc", "", "GeometricInv"},
	{"internal/randsrc", "", "GeometricWord"},
	{"internal/randsrc", "Rand", "Uint64"},
	{"internal/randsrc", "Rand", "Float64"},
	{"internal/randsrc", "Rand", "Intn"},
	{"internal/randsrc", "Rand", "IntnOther"},
	{"internal/randsrc", "Rand", "Bernoulli"},
	{"internal/randsrc", "Rand", "Geometric"},
	{"internal/randsrc", "SplitMix64", "Uint64"},
	{"internal/randsrc", "PCG", "Uint64"},
	{"internal/randsrc", "Source", "Uint64"},
	// Dense bit vectors: in-place accessors (not New/FromWords/Clone);
	// Grow is the amortized scratch-reuse contract.
	{"internal/bitset", "Bitset", "Len"},
	{"internal/bitset", "Bitset", "Words"},
	{"internal/bitset", "Bitset", "Get"},
	{"internal/bitset", "Bitset", "Set"},
	{"internal/bitset", "Bitset", "Flip"},
	{"internal/bitset", "Bitset", "Count"},
	{"internal/bitset", "Bitset", "Equal"},
	{"internal/bitset", "Bitset", "Reset"},
	{"internal/bitset", "Bitset", "Grow"},
	{"internal/bitset", "Bitset", "AccumulateInto"},
	// Bit-sliced counters: Add and FlushInto work in place on planes
	// sized by NewCounter.
	{"internal/bitset", "Counter", "Add"},
	{"internal/bitset", "Counter", "FlushInto"},
	// privacy's annotated surface: Charge sets a bit in the ledger's
	// bitset (checked in privacy's own pass; its growth branch past
	// maxUnits is an alloc-ok cold path).
	{"internal/privacy", "Ledger", "Charge"},
	// Universal hashing: stateless value types.
	{"internal/domain", "Bucketizer", "Bucket"},
	{"internal/domain", "Bucketizer", "BucketWidth"},
	{"internal/domain", "Bucketizer", "K"},
	{"internal/domain", "Bucketizer", "B"},

	{"internal/hashfamily", "Hash", "*"},
	{"internal/hashfamily", "SplitMixHash", "*"},
	{"internal/hashfamily", "CarterWegmanHash", "*"},
	// freqoracle's annotated surface, re-exported across package
	// boundaries (each entry is checked in freqoracle's own pass).
	{"internal/freqoracle", "", "AppendGRRReport"},
	{"internal/freqoracle", "", "AppendLHReport"},
	{"internal/freqoracle", "", "DecodeGRRReport"},
	{"internal/freqoracle", "", "DecodeLHReport"},
	{"internal/freqoracle", "", "ParseGRRPayload"},
	{"internal/freqoracle", "", "CheckUEPayload"},
	{"internal/freqoracle", "", "AccumulateUEPayload"},
	{"internal/freqoracle", "", "GRRPayloadBytes"},
	{"internal/freqoracle", "", "UEPayloadBytes"},
	{"internal/freqoracle", "GRR", "Perturb"},
	{"internal/freqoracle", "GRR", "PerturbWord"},
	{"internal/freqoracle", "GRR", "Params"},
	{"internal/freqoracle", "GRR", "K"},
	{"internal/freqoracle", "ReportSampler", "AppendReport"},
	{"internal/freqoracle", "ReportSampler", "K"},
	{"internal/freqoracle", "ReportSampler", "PayloadBytes"},
	// Contract interfaces of the longitudinal engine: implementations are
	// required (by this analyzer, in their own packages) to be noalloc.
	{"internal/longitudinal", "WireTallier", "TallyWire"},
	{"internal/longitudinal", "WireTallier", "PayloadStride"},
	{"internal/longitudinal", "WireTallier", "CheckRegistration"},
	{"internal/longitudinal", "AppendReporter", "AppendReport"},
	{"internal/longitudinal", "AppendReporter", "WireRegistration"},
	// Columnar batch surface: the decoder reuses the batch's columns (the
	// payload column aliases the source) and the accessors slice them.
	{"internal/longitudinal", "", "DecodeColumnar"},
	{"internal/longitudinal", "ColumnarBatch", "Count"},
	{"internal/longitudinal", "ColumnarBatch", "HasRegistrations"},
	{"internal/longitudinal", "ColumnarBatch", "Payload"},
	{"internal/longitudinal", "ColumnarBatch", "Registration"},
	// core's annotated surface, for the server package.
	{"internal/core", "Client", "AppendReport"},
	// server's annotated ingestion surface, for the netserver frame loop.
	{"internal/server", "Stream", "Ingest"},
	{"internal/server", "Stream", "IngestBatch"},
	{"internal/server", "Stream", "IngestColumnar"},
}

func pkgMatch(path, want string) bool {
	return path == want || strings.HasSuffix(path, "/"+want)
}

func trusted(pkg, recv, name string) bool {
	for _, r := range trustTable {
		if pkgMatch(pkg, r.pkg) &&
			(r.recv == recv || r.recv == "*") &&
			(r.name == name || r.name == "*") {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	ix := annot.NewIndex(pass.Fset, pass.Files)

	// Same-package trust: every annotated function may call every other.
	annotated := map[types.Object]bool{}
	var todo []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !annot.FuncHas(fd, "noalloc") {
				continue
			}
			if pass.IsTestFile(fd.Pos()) {
				pass.Reportf(fd.Pos(), "//loloha:noalloc on a _test.go function has no effect; pin allocations with testing.AllocsPerRun instead")
				continue
			}
			if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
				annotated[obj] = true
			}
			todo = append(todo, fd)
		}
	}
	for _, fd := range todo {
		c := &checker{pass: pass, ix: ix, annotated: annotated}
		if fd.Body != nil {
			c.block(fd.Body.List)
		}
	}
	return nil
}

type checker struct {
	pass      *analysis.Pass
	ix        *annot.Index
	annotated map[types.Object]bool
}

func (c *checker) bad(pos token.Pos, format string, args ...any) {
	c.pass.Reportf(pos, format, args...)
}

// terminates reports whether the block's last statement diverges or exits.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		return isPanic(last.X)
	}
	return false
}

func isPanic(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

func (c *checker) block(list []ast.Stmt) {
	for _, s := range list {
		c.stmt(s)
	}
}

func (c *checker) stmt(s ast.Stmt) {
	if s == nil || c.ix.At(s, "alloc-ok") {
		return
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		c.block(s.List)
	case *ast.IfStmt:
		c.stmt(s.Init)
		c.expr(s.Cond)
		if !terminates(s.Body) || c.ix.At(s, "steady") {
			c.block(s.Body.List)
		}
		switch el := s.Else.(type) {
		case *ast.BlockStmt:
			if !terminates(el) || c.ix.At(s, "steady") {
				c.block(el.List)
			}
		case *ast.IfStmt:
			c.stmt(el)
		}
	case *ast.ForStmt:
		c.stmt(s.Init)
		c.expr(s.Cond)
		c.stmt(s.Post)
		c.block(s.Body.List)
	case *ast.RangeStmt:
		c.expr(s.X)
		c.block(s.Body.List)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			c.exprCtx(r, nil, true)
		}
	case *ast.AssignStmt:
		if s.Tok == token.ADD_ASSIGN && isString(c.pass.TypesInfo.TypeOf(s.Lhs[0])) {
			c.bad(s.Pos(), "string concatenation allocates")
			return
		}
		for i, rhs := range s.Rhs {
			var lhs ast.Expr
			if len(s.Lhs) == len(s.Rhs) {
				lhs = s.Lhs[i]
			}
			c.exprCtx(rhs, lhs, false)
		}
		for _, lhs := range s.Lhs {
			if ix, ok := lhs.(*ast.IndexExpr); ok {
				// Map/slice index targets: check the index expression
				// (map growth on write is the amortized memo contract).
				c.expr(ix.Index)
			}
		}
	case *ast.ExprStmt:
		c.exprCtx(s.X, nil, false)
	case *ast.DeferStmt:
		c.call(s.Call, nil, false)
	case *ast.GoStmt:
		c.bad(s.Pos(), "go statement allocates a goroutine")
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.expr(v)
					}
				}
			}
		}
	case *ast.SendStmt:
		c.expr(s.Chan)
		c.expr(s.Value)
	case *ast.IncDecStmt:
		c.expr(s.X)
	case *ast.SwitchStmt:
		c.stmt(s.Init)
		c.expr(s.Tag)
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CaseClause)
			for _, e := range clause.List {
				c.expr(e)
			}
			c.block(clause.Body)
		}
	case *ast.TypeSwitchStmt:
		c.stmt(s.Init)
		for _, cc := range s.Body.List {
			c.block(cc.(*ast.CaseClause).Body)
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CommClause)
			c.stmt(clause.Comm)
			c.block(clause.Body)
		}
	case *ast.LabeledStmt:
		c.stmt(s.Stmt)
	}
}

// exprCtx walks e knowing its assignment target (for the self-append rule)
// and whether it sits in return position.
func (c *checker) exprCtx(e ast.Expr, lhs ast.Expr, retPos bool) {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		c.call(call, lhs, retPos)
		return
	}
	c.expr(e)
}

func (c *checker) expr(e ast.Expr) {
	switch e := e.(type) {
	case nil, *ast.Ident, *ast.BasicLit:
	case *ast.ParenExpr:
		c.expr(e.X)
	case *ast.SelectorExpr:
		c.expr(e.X)
	case *ast.StarExpr:
		c.expr(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
				c.bad(e.Pos(), "address of composite literal allocates")
				return
			}
		}
		c.expr(e.X)
	case *ast.BinaryExpr:
		if e.Op == token.ADD && isString(c.pass.TypesInfo.TypeOf(e)) {
			c.bad(e.Pos(), "string concatenation allocates")
			return
		}
		if e.Op == token.EQL || e.Op == token.NEQ {
			c.cmpOperand(e.X)
			c.cmpOperand(e.Y)
			return
		}
		c.expr(e.X)
		c.expr(e.Y)
	case *ast.CallExpr:
		c.call(e, nil, false)
	case *ast.CompositeLit:
		switch c.pass.TypesInfo.TypeOf(e).Underlying().(type) {
		case *types.Map:
			c.bad(e.Pos(), "map literal allocates")
		case *types.Slice:
			c.bad(e.Pos(), "slice literal allocates")
		default: // struct/array value: fine, check the elements
			for _, el := range e.Elts {
				c.expr(el)
			}
		}
	case *ast.FuncLit:
		c.bad(e.Pos(), "function literal allocates a closure")
	case *ast.IndexExpr:
		c.expr(e.X)
		if tv, ok := c.pass.TypesInfo.Types[e.Index]; !ok || !tv.IsType() {
			c.expr(e.Index)
		}
	case *ast.IndexListExpr:
		c.expr(e.X)
	case *ast.SliceExpr:
		c.expr(e.X)
		c.expr(e.Low)
		c.expr(e.High)
		c.expr(e.Max)
	case *ast.TypeAssertExpr:
		c.expr(e.X)
	case *ast.KeyValueExpr:
		c.expr(e.Key)
		c.expr(e.Value)
	}
}

func (c *checker) call(call *ast.CallExpr, lhs ast.Expr, retPos bool) {
	info := c.pass.TypesInfo
	fun := ast.Unparen(call.Fun)
	tv := info.Types[call.Fun]

	if tv.IsBuiltin() {
		name := ""
		switch f := fun.(type) {
		case *ast.Ident:
			name = f.Name
		case *ast.SelectorExpr:
			name = f.Sel.Name
		}
		switch name {
		case "append":
			c.checkAppend(call, lhs, retPos)
		case "make":
			c.bad(call.Pos(), "make allocates")
		case "new":
			c.bad(call.Pos(), "new allocates")
		case "panic":
			// Diverging: the panic path may allocate its message.
		case "print", "println":
			c.bad(call.Pos(), "%s allocates (and has no place on a hot path)", name)
		default:
			for _, a := range call.Args {
				c.expr(a)
			}
		}
		return
	}

	if tv.IsType() { // conversion
		c.checkConversion(call, tv.Type)
		return
	}

	sig, _ := info.TypeOf(call.Fun).(*types.Signature)
	c.checkCallee(call, fun)
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		c.expr(sel.X)
	}
	for i, a := range call.Args {
		c.exprCtx(a, nil, false)
		if sig != nil {
			c.checkBoxing(call, sig, i, a)
		}
	}
}

// checkAppend enforces the self-append contract: the result of append must
// flow back into its own first argument or be returned (the AppendReport
// convention, where the caller owns the buffer and growth is amortized).
func (c *checker) checkAppend(call *ast.CallExpr, lhs ast.Expr, retPos bool) {
	if len(call.Args) == 0 {
		return
	}
	dst := call.Args[0]
	if !retPos && (lhs == nil || render(c.pass.Fset, lhs) != render(c.pass.Fset, dst)) {
		c.bad(call.Pos(), "append result is neither returned nor assigned back to %s; growing another slice allocates untracked", render(c.pass.Fset, dst))
	}
	c.expr(dst)
	rest := call.Args[1:]
	if call.Ellipsis.IsValid() && len(rest) == 1 {
		if mk, ok := ast.Unparen(rest[0]).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(mk.Fun).(*ast.Ident); ok && id.Name == "make" {
				// append(dst, make([]T, n)...) is the compiler-recognized
				// bulk-extend; it allocates nothing when dst has capacity.
				for _, a := range mk.Args[1:] {
					c.expr(a)
				}
				return
			}
		}
	}
	for _, a := range rest {
		c.expr(a)
	}
}

func (c *checker) checkConversion(call *ast.CallExpr, target types.Type) {
	arg := call.Args[0]
	at := c.pass.TypesInfo.TypeOf(arg)
	switch target.Underlying().(type) {
	case *types.Basic:
		if isString(target) && !isString(at) && !isUntypedConst(c.pass.TypesInfo, arg) {
			c.bad(call.Pos(), "conversion to string allocates")
			return
		}
	case *types.Slice:
		if isString(at) {
			c.bad(call.Pos(), "string to slice conversion allocates")
			return
		}
	case *types.Interface:
		if boxAllocates(at) {
			c.bad(call.Pos(), "conversion to interface boxes %s", at)
			return
		}
	}
	c.expr(arg)
}

// checkCallee applies the trust rules to a non-builtin, non-conversion call.
func (c *checker) checkCallee(call *ast.CallExpr, fun ast.Expr) {
	var obj types.Object
	switch f := fun.(type) {
	case *ast.Ident:
		obj = c.pass.TypesInfo.Uses[f]
	case *ast.SelectorExpr:
		obj = c.pass.TypesInfo.Uses[f.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		c.bad(call.Pos(), "dynamic call through a function value cannot be verified noalloc")
		return
	}
	pkg := fn.Pkg()
	if pkg == nil { // error.Error and friends from the universe scope
		return
	}
	recv := recvName(fn)
	if pkg == c.pass.Pkg {
		if c.annotated[fn] || trusted(pkg.Path(), recv, fn.Name()) {
			return
		}
		c.bad(call.Pos(), "calls %s, which is not annotated //loloha:noalloc", fn.Name())
		return
	}
	if trusted(pkg.Path(), recv, fn.Name()) {
		return
	}
	c.bad(call.Pos(), "calls %s.%s, which is not in the noalloc trust table", pkg.Path(), qualify(recv, fn.Name()))
}

func qualify(recv, name string) string {
	if recv == "" {
		return name
	}
	return "(" + recv + ")." + name
}

// checkBoxing flags a concrete, non-pointer-shaped argument passed to an
// interface-typed parameter: the conversion heap-allocates the value.
func (c *checker) checkBoxing(call *ast.CallExpr, sig *types.Signature, i int, arg ast.Expr) {
	params := sig.Params()
	var pt types.Type
	switch {
	case sig.Variadic() && i >= params.Len()-1:
		if call.Ellipsis.IsValid() {
			return // slice passed through, no per-element conversion
		}
		pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
	case i < params.Len():
		pt = params.At(i).Type()
	default:
		return
	}
	if _, ok := pt.Underlying().(*types.Interface); !ok {
		return
	}
	tv := c.pass.TypesInfo.Types[arg]
	if tv.IsNil() {
		return
	}
	at := tv.Type
	if _, ok := at.Underlying().(*types.Interface); ok {
		return
	}
	if boxAllocates(at) {
		c.bad(arg.Pos(), "passing %s to an interface parameter boxes it", at)
	}
}

// boxAllocates reports whether converting a value of type t to an interface
// heap-allocates: everything except pointer-shaped types does.
func boxAllocates(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		return u.Kind() != types.UnsafePointer && u.Kind() != types.UntypedNil
	}
	return true
}

func recvName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// cmpOperand walks one operand of an ==/!= comparison, treating a direct
// []byte→string conversion as free: the compiler lowers string(b) == s to
// a length check plus memequal without materializing the string (the
// wire-reader magic checks depend on this).
func (c *checker) cmpOperand(e ast.Expr) {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok && len(call.Args) == 1 {
		if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && isString(tv.Type) && isByteSlice(c.pass.TypesInfo.TypeOf(call.Args[0])) {
			c.expr(call.Args[0])
			return
		}
	}
	c.expr(e)
}

func isByteSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isUntypedConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

func render(fset *token.FileSet, e ast.Expr) string {
	var b bytes.Buffer
	printer.Fprint(&b, fset, e)
	return b.String()
}
