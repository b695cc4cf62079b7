package wstrust

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestInternalOptionsHaveProgramCallers keeps the option surface to what
// programs set: every exported With* option constructor declared under
// internal/ must be called from a non-test file of cmd/, internal/, bench/
// or this package. Examples and _test.go files do not count. An option
// that only they set keeps a code path no program runs beside the one
// every run takes; make it a constant at the value programs use.
func TestInternalOptionsHaveProgramCallers(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]token.Pos{} // "wstrust/internal/x.WithY" → declaration
	called := map[string]bool{}
	for _, root := range []string{"cmd", "internal", "bench", "."} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if p != root && (root == "." || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
					return filepath.SkipDir // the root package is one directory
				}
				return nil
			}
			if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkg := path.Join("wstrust", filepath.ToSlash(filepath.Dir(p)))
			if root == "internal" {
				for _, decl := range f.Decls {
					if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil &&
						strings.HasPrefix(fn.Name.Name, "With") && fn.Name.IsExported() {
						declared[pkg+"."+fn.Name.Name] = fn.Pos()
					}
				}
			}
			imports := map[string]string{} // local name → import path
			for _, spec := range f.Imports {
				ip, _ := strconv.Unquote(spec.Path.Value)
				name := path.Base(ip)
				if spec.Name != nil {
					name = spec.Name.Name
				}
				imports[name] = ip
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					called[pkg+"."+fun.Name] = true
				case *ast.SelectorExpr:
					if x, ok := fun.X.(*ast.Ident); ok && imports[x.Name] != "" {
						called[imports[x.Name]+"."+fun.Sel.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(declared) == 0 {
		t.Fatal("found no With* option constructors under internal/")
	}
	var missing []string
	for name, pos := range declared {
		if !called[name] {
			missing = append(missing, fset.Position(pos).String()+": "+strings.TrimPrefix(name, "wstrust/internal/"))
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s is set only by tests or examples; make it a constant", m)
	}
}
