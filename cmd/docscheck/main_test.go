package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestCheckMarkdownRefs: a comment naming a missing .md file is reported;
// files present at the root or next to the Go file, and URLs, are not.
func TestCheckMarkdownRefs(t *testing.T) {
	root := t.TempDir()
	sub := filepath.Join(root, "pkg")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{filepath.Join(root, "ARCHITECTURE.md"), filepath.Join(sub, "NOTES.md")} {
		if err := os.WriteFile(p, []byte("# doc\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	src := `// Package pkg: see ARCHITECTURE.md, NOTES.md, DESIGN.md and
// docs/MISSING.md; https://example.com/README.md is a URL.
package pkg
`
	goFile := filepath.Join(sub, "doc.go")
	if err := os.WriteFile(goFile, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	n, err := checkMarkdownRefs(root, []string{goFile}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || !strings.Contains(out.String(), " DESIGN.md") || !strings.Contains(out.String(), " docs/MISSING.md") {
		t.Fatalf("got %d dangling references:\n%s", n, out.String())
	}
	files, err := moduleGoFiles(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0] != goFile {
		t.Fatalf("moduleGoFiles = %v, want [%s]", files, goFile)
	}
}

// TestCheckAPI: the surface lists every exported identifier of an
// importable package, struct fields and interface methods included, and
// nothing from tests, main packages or unexported receivers; once written
// by update, the check passes, and a new export fails it as one added line.
func TestCheckAPI(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		p := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.com/m\n\ngo 1.24\n")
	write("lib/lib.go", `package lib

const Max, min = 1, 0

var ErrX error

type Config struct {
	Size   int
	hidden int
}

type Engine interface {
	Run() error
	stop()
}

type impl struct{}

func (impl) Exported() {}

func (*Config) Resolve() Config { return Config{} }

func New() *Config { return nil }
`)
	write("lib/lib_test.go", "package lib\n\nfunc TestOnly() {}\n")
	write("cmd/tool/main.go", "package main\n\nfunc Exported() {}\n\nfunc main() {}\n")
	files, err := moduleGoFiles(root)
	if err != nil {
		t.Fatal(err)
	}
	lines, err := apiLines(root, files)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"example.com/m/lib const Max",
		"example.com/m/lib field Config.Size",
		"example.com/m/lib func New",
		"example.com/m/lib method Config.Resolve",
		"example.com/m/lib method Engine.Run",
		"example.com/m/lib type Config",
		"example.com/m/lib type Engine",
		"example.com/m/lib var ErrX",
	}
	if !slices.Equal(lines, want) {
		t.Fatalf("apiLines =\n%s\nwant\n%s", strings.Join(lines, "\n"), strings.Join(want, "\n"))
	}
	var out strings.Builder
	if n, err := checkAPI(root, files, false, &out); err != nil || n != len(want) {
		t.Fatalf("no api.txt: %d lines out of date, err %v, want %d", n, err, len(want))
	}
	if _, err := checkAPI(root, files, true, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if n, err := checkAPI(root, files, false, &out); err != nil || n != 0 {
		t.Fatalf("after update: %d lines out of date, err %v:\n%s", n, err, out.String())
	}
	write("lib/more.go", "package lib\n\nfunc Knob() {}\n")
	if files, err = moduleGoFiles(root); err != nil {
		t.Fatal(err)
	}
	if n, err := checkAPI(root, files, false, &out); err != nil || n != 1 || !strings.Contains(out.String(), "+example.com/m/lib func Knob") {
		t.Fatalf("new export: %d lines out of date, err %v:\n%s", n, err, out.String())
	}
}
