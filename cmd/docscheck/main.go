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
// Finally it pins the exported surface, the way Go's own api/ files do:
// api.txt at the module root holds one sorted line per exported identifier
// of every importable package (tests, main packages and the nested
// perfbench module excluded), exported struct fields and interface methods
// included, and the check fails when the code and the file differ. A
// change that adds or removes an export rewrites the file with
// -update-api, so surface growth shows in review.
//
// Usage: docscheck [-update-api] [package dirs]; default is the audited
// engine surface (internal/core, internal/tflm, internal/dsp,
// internal/netfront). The markdown and surface checks always cover every
// Go file of the module. Exits non-zero listing every violation, so a PR
// cannot silently add undocumented API or point readers at a document
// that does not exist.
package main

import (
	"errors"
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
	"slices"
	"sort"
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

// apiFile is the pinned exported surface, relative to the module root.
const apiFile = "api.txt"

func main() {
	updateAPI := flag.Bool("update-api", false, "rewrite "+apiFile+" from the code instead of checking it")
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
	surface, err := checkAPI(".", mdFiles, *updateAPI, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(2)
	}
	if violations > 0 || dangling > 0 || surface > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d undocumented exported identifiers, %d dangling .md references, %d %s lines out of date (go run ./cmd/docscheck -update-api)\n",
			violations, dangling, surface, apiFile)
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
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			exports(file, func(pos token.Pos, kind, name string, documented bool) {
				if !documented {
					p := fset.Position(pos)
					fmt.Fprintf(os.Stderr, "%s:%d: %s %s has no doc comment\n", p.Filename, p.Line, kind, name)
					bad++
				}
			})
		}
	}
	return bad, nil
}

// exports calls visit for every exported identifier a file declares: its
// funcs, types, consts and vars, the methods of its exported types (methods
// on unexported types are not public API even when capitalized), and the
// exported fields of exported structs and methods of exported interfaces,
// both named Type.Member. Embedded fields are documented by the embedded
// type and are not visited. documented applies the rules of the package
// comment.
func exports(file *ast.File, visit func(pos token.Pos, kind, name string, documented bool)) {
	members := func(kind, typ string, fields *ast.FieldList) {
		for _, f := range fields.List {
			for _, name := range f.Names {
				if name.IsExported() {
					visit(name.Pos(), kind, typ+"."+name.Name, f.Doc != nil || f.Comment != nil)
				}
			}
		}
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			switch {
			case !d.Name.IsExported():
			case d.Recv == nil:
				visit(d.Pos(), "func", d.Name.Name, d.Doc != nil)
			case token.IsExported(receiverName(d)):
				visit(d.Pos(), "method", receiverName(d)+"."+d.Name.Name, d.Doc != nil)
			}
		case *ast.GenDecl:
			groupDoc := d.Doc != nil
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if !s.Name.IsExported() {
						continue
					}
					visit(s.Pos(), "type", s.Name.Name, groupDoc || s.Doc != nil)
					switch t := s.Type.(type) {
					case *ast.StructType:
						members("field", s.Name.Name, t.Fields)
					case *ast.InterfaceType:
						members("method", s.Name.Name, t.Methods)
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() {
							visit(name.Pos(), d.Tok.String(), name.Name, groupDoc || s.Doc != nil || s.Comment != nil)
						}
					}
				}
			}
		}
	}
}

// receiverName returns the type name of a method's receiver.
func receiverName(d *ast.FuncDecl) string {
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
			return tt.Name
		default:
			return ""
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

// checkAPI compares the exported surface of the given module files with
// root's api.txt, reports each line present on one side only to w, and
// returns their count. With update it rewrites the file instead.
func checkAPI(root string, files []string, update bool, w io.Writer) (int, error) {
	lines, err := apiLines(root, files)
	if err != nil {
		return 0, err
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join(root, apiFile)
	if update {
		return 0, os.WriteFile(path, []byte(got), 0o644)
	}
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return 0, err
	}
	if string(data) == got {
		return 0, nil
	}
	pinned := strings.FieldsFunc(string(data), func(r rune) bool { return r == '\n' })
	diff := 0
	for _, d := range []struct {
		sign     string
		from, in []string
	}{{"+", lines, pinned}, {"-", pinned, lines}} {
		for _, l := range d.from {
			if !slices.Contains(d.in, l) {
				fmt.Fprintf(w, "%s: %s%s\n", apiFile, d.sign, l)
				diff++
			}
		}
	}
	if diff == 0 { // same lines, but unsorted or duplicated
		fmt.Fprintf(w, "%s: not in canonical form\n", apiFile)
		diff++
	}
	return diff, nil
}

// apiLines returns one sorted line per exported identifier (exports) of the
// non-test files of root's importable packages, "<import path> <kind>
// <name>"; a name declared in several build-tagged files is listed once.
func apiLines(root string, files []string) ([]string, error) {
	module, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	set := make(map[string]bool)
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if f.Name.Name == "main" {
			continue
		}
		pkg := module
		if dir, err := filepath.Rel(root, filepath.Dir(path)); err != nil {
			return nil, err
		} else if dir != "." {
			pkg += "/" + filepath.ToSlash(dir)
		}
		exports(f, func(_ token.Pos, kind, name string, _ bool) { set[pkg+" "+kind+" "+name] = true })
	}
	lines := make([]string, 0, len(set))
	for l := range set {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	return lines, nil
}

// modulePath reads the module path from root's go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if mod, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(mod), nil
		}
	}
	return "", errors.New("go.mod has no module line")
}
