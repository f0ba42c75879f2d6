package repro

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
	"unicode"
)

// docCheckedPackages are the packages whose exported surface must be fully
// documented. The serving and persistence layers are the repository's
// operational interface — their godoc is what an operator reads first — so
// comment coverage there is enforced like a compile error.
var docCheckedPackages = []string{
	"internal/estimate",
	"internal/gateway",
	"internal/gateway/clustertest",
	"internal/graph",
	"internal/graph/snapshot",
	"internal/motif",
	"internal/osn/httpsrc",
	"internal/osn/httpsrc/faultsim",
	"internal/serve",
	"internal/sizeest",
	"internal/store",
}

// TestGodocCoverage fails for every exported symbol in the checked packages
// that lacks a doc comment: package clauses, functions, methods on exported
// types, types, grouped consts/vars (a group comment covers its members),
// and exported struct fields.
func TestGodocCoverage(t *testing.T) {
	for _, dir := range docCheckedPackages {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for name, pkg := range pkgs {
			if strings.HasSuffix(name, "_test") {
				continue
			}
			checkPackageDocs(t, fset, dir, pkg)
		}
	}
}

// checkPackageDocs walks one parsed package and reports undocumented
// exported declarations.
func checkPackageDocs(t *testing.T, fset *token.FileSet, dir string, pkg *ast.Package) {
	t.Helper()
	complain := func(pos token.Pos, format string, args ...any) {
		t.Helper()
		t.Errorf("%s: %s", fset.Position(pos), fmt.Sprintf(format, args...))
	}

	hasPackageDoc := false
	for fname, file := range pkg.Files {
		if !strings.HasSuffix(fname, "_test.go") && file.Doc != nil {
			hasPackageDoc = true
		}
	}
	if !hasPackageDoc {
		t.Errorf("%s: package %s has no package doc comment", dir, pkg.Name)
	}

	for fname, file := range pkg.Files {
		if strings.HasSuffix(fname, "_test.go") {
			// Test helpers document themselves through their assertions.
			continue
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || !exportedReceiver(d) {
					continue
				}
				if d.Doc == nil {
					complain(d.Pos(), "exported %s %s has no doc comment", funcKind(d), d.Name.Name)
				}
			case *ast.GenDecl:
				checkGenDecl(t, complain, d)
			}
		}
	}
}

// exportedReceiver reports whether a function is free-standing or a method
// on an exported type (methods on unexported types are internal detail).
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	typ := d.Recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr:
			typ = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}

// funcKind renders "function" or "method" for the error message.
func funcKind(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

// checkGenDecl enforces docs on exported consts, vars, types and struct
// fields. A doc comment on the const/var group covers its members.
func checkGenDecl(t *testing.T, complain func(token.Pos, string, ...any), d *ast.GenDecl) {
	t.Helper()
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.ValueSpec:
			for _, name := range s.Names {
				if !name.IsExported() {
					continue
				}
				if s.Doc == nil && s.Comment == nil && d.Doc == nil {
					complain(name.Pos(), "exported %s %s has no doc comment", d.Tok, name.Name)
				}
			}
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			if s.Doc == nil && d.Doc == nil {
				complain(s.Pos(), "exported type %s has no doc comment", s.Name.Name)
			}
			st, ok := s.Type.(*ast.StructType)
			if !ok || st.Fields == nil {
				continue
			}
			for _, field := range st.Fields.List {
				if field.Doc != nil || field.Comment != nil {
					continue
				}
				for _, fname := range field.Names {
					if fname.IsExported() {
						complain(fname.Pos(), "exported field %s.%s has no doc comment", s.Name.Name, fname.Name)
					}
				}
				// Exported embedded fields without names.
				if len(field.Names) == 0 {
					if id := embeddedName(field.Type); id != "" && unicode.IsUpper(rune(id[0])) {
						complain(field.Pos(), "exported embedded field %s.%s has no doc comment", s.Name.Name, id)
					}
				}
			}
		}
	}
}

// embeddedName resolves the type name of an embedded struct field.
func embeddedName(expr ast.Expr) string {
	switch tt := expr.(type) {
	case *ast.StarExpr:
		return embeddedName(tt.X)
	case *ast.SelectorExpr:
		return tt.Sel.Name
	case *ast.Ident:
		return tt.Name
	}
	return ""
}
