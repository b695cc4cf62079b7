package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc keeps the measured hot paths allocation-free. Functions whose
// doc comment carries a `//lint:hotpath` marker (RankSession.Rank, the
// epoch-cached Score steady paths, the WAL frame encoder, wsxd's rank
// snapshot read) are the paths the BENCH_LEDGER.json numbers were earned
// on; this analyzer flags the patterns that silently re-introduce
// per-call allocations:
//
//   - fmt calls: every fmt.Sprintf/Errorf formats through reflection and
//     allocates — strconv appends or prebuilt strings belong here instead.
//   - per-call map allocation: a map literal or make(map…) inside the
//     hot path defeats the point of the prepared/cached state.
//   - heap-escaping composite literals: &T{…} and new(T) hand the
//     escape-analysis a pointer that usually ends up on the heap.
//   - un-preallocated appends in loops: growing a slice from nil inside
//     a loop reallocates log(n) times; size it with make(T, 0, n) or
//     reuse a scratch buffer (buf[:0]) before the loop.
//   - interface boxing: passing a concrete value to an interface-typed
//     parameter (sort.Slice's any, a logger's …any) allocates an eface
//     per call on most sizes — generic or concrete helpers avoid it.
//
// A deliberate allocation on a cold branch (an error path's fmt.Errorf)
// carries //lint:hotalloc with a justification on its line.
var HotAlloc = &Analyzer{
	Name:    "hotalloc",
	Doc:     "functions marked //lint:hotpath must not allocate per call: no fmt, map allocation, &composite/new, un-preallocated loop append, or interface boxing",
	Applies: func(string) bool { return true },
	Run:     runHotAlloc,
}

// hotpathMarker tags a function's doc comment as a measured hot path.
const hotpathMarker = "//lint:hotpath"

func runHotAlloc(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !isHotPath(fn) {
				continue
			}
			pass.checkHotFunc(fn)
		}
	}
}

// isHotPath reports whether fn's doc comment carries //lint:hotpath.
func isHotPath(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.HasPrefix(c.Text, hotpathMarker) {
			return true
		}
	}
	return false
}

func (p *Pass) checkHotFunc(fn *ast.FuncDecl) {
	prealloc := p.preallocatedSlices(fn.Body)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CompositeLit:
			if t := p.TypesInfo.TypeOf(node); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					p.Reportf(node.Pos(),
						"map literal allocates on every call of hot path %s; hoist it into prepared state or justify with //lint:hotalloc", fn.Name.Name)
				}
			}
		case *ast.UnaryExpr:
			if node.Op == token.AND {
				if _, isLit := node.X.(*ast.CompositeLit); isLit {
					p.Reportf(node.Pos(),
						"&composite literal escapes to the heap on hot path %s; reuse a buffer or justify with //lint:hotalloc", fn.Name.Name)
				}
			}
		case *ast.CallExpr:
			p.checkHotCall(fn, node, prealloc)
		}
		return true
	})
}

func (p *Pass) checkHotCall(fn *ast.FuncDecl, call *ast.CallExpr, prealloc map[types.Object]bool) {
	// new(T) and make(map[...]) allocate per call.
	if id, ok := call.Fun.(*ast.Ident); ok {
		switch {
		case id.Name == "new" && p.TypesInfo.Uses[id] == types.Universe.Lookup("new"):
			p.Reportf(call.Pos(),
				"new(T) heap-allocates on every call of hot path %s; reuse prepared state or justify with //lint:hotalloc", fn.Name.Name)
			return
		case id.Name == "make" && p.TypesInfo.Uses[id] == types.Universe.Lookup("make") && len(call.Args) > 0:
			if t := p.TypesInfo.TypeOf(call.Args[0]); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					p.Reportf(call.Pos(),
						"make(map) allocates on every call of hot path %s; hoist it into prepared state or justify with //lint:hotalloc", fn.Name.Name)
					return
				}
			}
		case id.Name == "append" && p.TypesInfo.Uses[id] == types.Universe.Lookup("append"):
			if len(call.Args) > 0 && inForLoop(fn.Body, call) && !p.appendTargetPrepared(call.Args[0], prealloc) {
				p.Reportf(call.Pos(),
					"append in a loop on hot path %s grows an un-preallocated slice; size it with make(T, 0, n) or a reused buffer before the loop, or justify with //lint:hotalloc", fn.Name.Name)
			}
			return
		}
	}
	// fmt calls format through reflection and allocate.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if path, ok := p.packageQualifier(sel); ok && path == "fmt" {
			p.Reportf(call.Pos(),
				"fmt.%s allocates and reflects on hot path %s; use strconv appends or move it off the hot path, or justify with //lint:hotalloc", sel.Sel.Name, fn.Name.Name)
			return
		}
	}
	p.checkBoxing(fn, call)
}

// checkBoxing flags concrete values passed to interface-typed parameters:
// the conversion allocates an interface value per call (sort.Slice's any
// parameter being the classic hot-path offender).
func (p *Pass) checkBoxing(fn *ast.FuncDecl, call *ast.CallExpr) {
	sig, ok := p.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			last := params.At(params.Len() - 1).Type()
			slice, isSlice := last.(*types.Slice)
			if !isSlice {
				return
			}
			pt = slice.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := p.TypesInfo.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if b, isBasic := at.(*types.Basic); isBasic && b.Kind() == types.UntypedNil {
			continue
		}
		if _, isSig := at.Underlying().(*types.Signature); isSig {
			continue // func values satisfy concrete func params of callbacks, not boxing hot spots
		}
		p.Reportf(arg.Pos(),
			"passing %s to an interface parameter boxes it on hot path %s; use a concrete or generic helper, or justify with //lint:hotalloc",
			at.String(), fn.Name.Name)
	}
}

// preallocatedSlices collects slice variables the function sized before
// use: declared via make with an explicit capacity (or non-zero length)
// or re-sliced from an existing buffer (buf[:0] / field[:0]).
func (p *Pass) preallocatedSlices(body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, lhs := range assign.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := p.TypesInfo.Defs[id]
			if obj == nil {
				obj = p.TypesInfo.Uses[id]
			}
			if obj == nil {
				continue
			}
			switch rhs := assign.Rhs[i].(type) {
			case *ast.CallExpr:
				if fid, ok := rhs.Fun.(*ast.Ident); ok && fid.Name == "make" && len(rhs.Args) >= 2 {
					out[obj] = true // make with explicit length or capacity
				}
			case *ast.SliceExpr:
				out[obj] = true // reuse of an existing backing array (buf[:0])
			}
		}
		return true
	})
	return out
}

// appendTargetPrepared reports whether the first argument of an append is
// a slice the function preallocated (make-with-size or a re-sliced
// buffer) or a direct re-slice/field expression such as s.buf[:0].
func (p *Pass) appendTargetPrepared(target ast.Expr, prealloc map[types.Object]bool) bool {
	switch t := target.(type) {
	case *ast.Ident:
		obj := p.TypesInfo.Uses[t]
		if obj == nil {
			obj = p.TypesInfo.Defs[t]
		}
		return obj != nil && prealloc[obj]
	case *ast.SliceExpr:
		return true // appending into an explicit re-slice
	}
	return false
}
