package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Immutable enforces `// immutable after publish` type annotations. The
// serving path's correctness rests on copy-on-write: the wsxd ranked
// snapshot and benchfmt records are built once, published through an
// atomic pointer (or written to disk), and then shared by concurrent
// readers with no locking at all. That is only sound if no
// code path ever mutates a published value — a single in-place write is
// a data race with every reader and, worse, a silent one: the race
// detector only sees it when a test happens to overlap the access.
//
// Any type whose declaration doc (or trailing comment) contains
// "immutable after publish" is registered; every field write — direct
// assignment, compound assignment, ++/--, and element writes through a
// field (v.slice[i] = x, v.m[k] = x) — anywhere in the analyzed packages
// is then reported, including cross-package writes. Constructors and
// builders, which necessarily write fields before the value is
// published, carry //lint:immutable on their doc comment with a
// justification; a single deliberate pre-publish write can be justified
// on its line. Writes through an aliased local (s := v.slice; s[0] = x)
// are beyond a static check's reach — the annotation documents intent,
// the analyzer catches the realistic direct-mutation mistake.
var Immutable = &Analyzer{
	Name:    "immutable",
	Doc:     "types annotated 'immutable after publish' may only have fields written in //lint:immutable-justified constructors/builders",
	Applies: func(string) bool { return true },
	Run:     runImmutable,
	Begin:   beginImmutable,
	Finish:  finishImmutable,
}

// immutableMarker in a type declaration's doc or line comment freezes the
// type after construction.
const immutableMarker = "immutable after publish"

// fieldWrite is one candidate mutation, held until Finish decides whether
// its owner type is annotated (the annotation may live in a package
// analyzed later).
type fieldWrite struct {
	typeKey    string // owner type: pkgpath.TypeName
	pos        token.Position
	what       string // rendered description of the write
	suppressed bool
}

var immutableState struct {
	annotated map[string]bool // pkgpath.TypeName → annotated
	writes    []fieldWrite
}

func beginImmutable() {
	immutableState.annotated = map[string]bool{}
	immutableState.writes = nil
}

func runImmutable(pass *Pass) {
	pass.collectImmutableTypes()
	pass.collectFieldWrites()
}

// collectImmutableTypes registers this package's annotated type
// declarations.
func (p *Pass) collectImmutableTypes() {
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			declDoc := ""
			if gd.Doc != nil {
				declDoc = gd.Doc.Text()
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				text := declDoc
				if ts.Doc != nil {
					text += ts.Doc.Text()
				}
				if ts.Comment != nil {
					text += ts.Comment.Text()
				}
				if strings.Contains(text, immutableMarker) {
					immutableState.annotated[p.Pkg.Path()+"."+ts.Name.Name] = true
				}
			}
		}
	}
}

// collectFieldWrites records every write whose target roots at a field of
// a named struct type, capturing suppression state now (line comment or
// the enclosing function's //lint:immutable doc justification).
func (p *Pass) collectFieldWrites() {
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			fnSuppressed := p.FuncSuppressed(fn)
			record := func(target ast.Expr, verb string) {
				key, desc, ok := p.fieldWriteTarget(target)
				if !ok {
					return
				}
				immutableState.writes = append(immutableState.writes, fieldWrite{
					typeKey:    key,
					pos:        p.Fset.Position(target.Pos()),
					what:       fmt.Sprintf("%s %s in %s", verb, desc, funcTitle(fn)),
					suppressed: fnSuppressed || p.lineSuppressed(target.Pos()),
				})
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch stmt := n.(type) {
				case *ast.AssignStmt:
					if stmt.Tok == token.DEFINE {
						return true
					}
					for _, lhs := range stmt.Lhs {
						record(lhs, "write to")
					}
				case *ast.IncDecStmt:
					record(stmt.X, "increment of")
				}
				return true
			})
		}
	}
}

// fieldWriteTarget resolves a write target to the owning named type of
// the outermost field selection it goes through. v.f = x roots at v's
// type; v.f[i] = x and v.f.g = x also root at v's type — mutating deeper
// state reached through a frozen field still mutates the published value.
func (p *Pass) fieldWriteTarget(target ast.Expr) (typeKey, desc string, ok bool) {
	for {
		switch t := target.(type) {
		case *ast.IndexExpr:
			target = t.X
			continue
		case *ast.StarExpr:
			target = t.X
			continue
		case *ast.SelectorExpr:
			selection, found := p.TypesInfo.Selections[t]
			if !found || selection.Kind() != types.FieldVal {
				return "", "", false
			}
			owner := selection.Recv()
			if ptr, isPtr := owner.(*types.Pointer); isPtr {
				owner = ptr.Elem()
			}
			named, isNamed := owner.(*types.Named)
			if !isNamed || named.Obj().Pkg() == nil {
				return "", "", false
			}
			key := named.Obj().Pkg().Path() + "." + named.Obj().Name()
			return key, fmt.Sprintf("field %s.%s", named.Obj().Name(), selection.Obj().Name()), true
		default:
			return "", "", false
		}
	}
}

// finishImmutable reports the writes whose owner type any analyzed
// package annotated, now that all annotations are known.
func finishImmutable(report func(Diagnostic)) {
	for _, w := range immutableState.writes {
		if w.suppressed || !immutableState.annotated[w.typeKey] {
			continue
		}
		report(Diagnostic{
			Pos:      w.pos,
			Analyzer: "immutable",
			Message: fmt.Sprintf("%s mutates a type declared immutable after publish; build a fresh value instead, or justify a constructor/builder with //lint:immutable",
				w.what),
		})
	}
}
