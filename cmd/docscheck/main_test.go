package main

import (
	"os"
	"path/filepath"
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
