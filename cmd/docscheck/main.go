// Command docscheck enforces the repository's godoc contract: every
// exported identifier in the audited packages must carry a doc comment
// stating its contract (`make docs-check` wires it into CI). The rules
// follow idiomatic godoc rather than raw AST pedantry:
//
//   - exported functions, methods (on exported receivers), types and
//     single-spec const/var declarations need their own comment;
//   - a const/var group with a declaration-level comment covers its
//     members (the "// Frame types." style);
//   - exported fields of exported structs and exported interface methods
//     need a comment attached to the field/method or sharing its line.
//
// It also fails on a dangling markdown reference: a comment in any Go file
// that names a local .md file (ARCHITECTURE.md, perfbench/README.md) which
// exists neither relative to the module root nor to the file's directory.
//
// Usage: docscheck [package dirs]; default is the audited engine surface
// (internal/core, internal/tflm, internal/dsp, internal/netfront). The
// markdown check always covers every Go file of the module. Exits non-zero listing
// every violation, so a PR cannot silently add undocumented API or point
// readers at a document that does not exist.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// defaultDirs is the audited API surface: the engine packages ISSUE 5's
// godoc audit covers, plus the serving edge added with it and the PCM16
// codec the edge and the secure capture path share.
var defaultDirs = []string{
	"internal/core",
	"internal/tflm",
	"internal/dsp",
	"internal/netfront",
	"internal/netfront/client",
	"internal/netfront/faultconn",
	"internal/loadgen",
	"internal/pcm",
}

func main() {
	flag.Parse()
	dirs := flag.Args()
	if len(dirs) == 0 {
		dirs = defaultDirs
	}
	mdFiles, err := moduleGoFiles(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(2)
	}
	violations := 0
	for _, dir := range dirs {
		v, err := checkDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %s: %v\n", dir, err)
			os.Exit(2)
		}
		violations += v
	}
	dangling, err := checkMarkdownRefs(".", mdFiles, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(2)
	}
	if violations > 0 || dangling > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d undocumented exported identifiers, %d dangling .md references\n", violations, dangling)
		os.Exit(1)
	}
}

// checkDir parses one package directory (tests excluded) and reports every
// undocumented exported identifier to stderr, returning the count.
func checkDir(dir string) (int, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return 0, err
	}
	bad := 0
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		fmt.Fprintf(os.Stderr, "%s:%d: %s %s has no doc comment\n", p.Filename, p.Line, kind, name)
		bad++
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || !receiverExported(d) {
						continue
					}
					if d.Doc == nil {
						kind := "func"
						if d.Recv != nil {
							kind = "method"
						}
						report(d.Pos(), kind, d.Name.Name)
					}
				case *ast.GenDecl:
					checkGenDecl(d, report)
				}
			}
		}
	}
	return bad, nil
}

// receiverExported reports whether a method's receiver type is exported
// (methods on unexported types are not public API even when capitalized).
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}

// checkGenDecl audits a type/const/var declaration. A group-level doc
// comment covers all specs of a const/var block; types always need their
// own comment, and exported struct fields / interface methods are checked
// recursively.
func checkGenDecl(d *ast.GenDecl, report func(token.Pos, string, string)) {
	groupDoc := d.Doc != nil
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			if !groupDoc && s.Doc == nil {
				report(s.Pos(), "type", s.Name.Name)
			}
			switch t := s.Type.(type) {
			case *ast.StructType:
				checkFields(s.Name.Name, t.Fields, "field", report)
			case *ast.InterfaceType:
				checkFields(s.Name.Name, t.Methods, "interface method", report)
			}
		case *ast.ValueSpec:
			if s.Doc != nil || groupDoc || s.Comment != nil {
				continue
			}
			kind := "var"
			if d.Tok == token.CONST {
				kind = "const"
			}
			for _, name := range s.Names {
				if name.IsExported() {
					report(name.Pos(), kind, name.Name)
				}
			}
		}
	}
}

// checkFields audits a struct field list or interface method set: an
// exported member needs a doc comment above it or a line comment on it.
func checkFields(typeName string, fields *ast.FieldList, kind string, report func(token.Pos, string, string)) {
	if fields == nil {
		return
	}
	for _, f := range fields.List {
		if f.Doc != nil || f.Comment != nil {
			continue
		}
		if len(f.Names) == 0 {
			continue // embedded: documented by the embedded type
		}
		for _, name := range f.Names {
			if name.IsExported() {
				report(name.Pos(), kind, typeName+"."+name.Name)
			}
		}
	}
}

// mdRef matches a markdown file name or slash-separated path in a comment.
var mdRef = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b`)

// checkMarkdownRefs reports, to w, every .md file named in a comment of the
// given Go files that exists neither under root nor next to the file, and
// returns the count. URLs (a match starting with "//") are not local
// references and are skipped.
func checkMarkdownRefs(root string, files []string, w io.Writer) (int, error) {
	bad := 0
	for _, path := range files {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return bad, err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, loc := range mdRef.FindAllStringIndex(c.Text, -1) {
					ref := c.Text[loc[0]:loc[1]]
					if strings.HasPrefix(ref, "//") {
						continue
					}
					if fileExists(filepath.Join(root, ref)) || fileExists(filepath.Join(filepath.Dir(path), ref)) {
						continue
					}
					fmt.Fprintf(w, "%s: dangling markdown reference %s\n", fset.Position(c.Pos()+token.Pos(loc[0])), ref)
					bad++
				}
			}
		}
	}
	return bad, nil
}

func fileExists(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && !fi.IsDir()
}

// moduleGoFiles lists every .go file of the module rooted at root, skipping
// hidden directories, testdata and nested modules (perfbench has its own
// go.mod).
func moduleGoFiles(root string) ([]string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			name := d.Name()
			if strings.HasPrefix(name, ".") || name == "testdata" || fileExists(filepath.Join(path, "go.mod")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	return files, err
}
