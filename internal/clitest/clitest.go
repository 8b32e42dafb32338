// Package clitest checks a command's documented usage examples against its
// flag set, so a removed or renamed flag cannot linger in the package doc.
package clitest

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// CheckUsageExamples reads the package doc of the Go file at path and calls
// parse with the arguments of every example under its "Usage:" heading: a
// tab-indented line naming command, then its arguments, then optionally two
// or more spaces and a description. Double quotes group an argument
// ("a=1,b=2"). Each error parse returns fails t with the example's line; a
// doc with no examples fails t too.
func CheckUsageExamples(t *testing.T, path, command string, parse func(args []string) error) {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.PackageClauseOnly|parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	_, usage, ok := strings.Cut(f.Doc.Text(), "Usage:\n")
	if !ok {
		t.Fatalf("%s: package doc has no Usage: section", path)
	}
	n := 0
	for _, line := range strings.Split(strings.TrimLeft(usage, "\n"), "\n") {
		if !strings.HasPrefix(line, "\t") {
			break
		}
		cmdline, _, _ := strings.Cut(strings.TrimSpace(line), "  ")
		args := splitArgs(cmdline)
		if args[0] != command {
			t.Errorf("%s: example %q does not run %s", path, line, command)
			continue
		}
		n++
		if err := parse(args[1:]); err != nil {
			t.Errorf("%s: example %q: %v", path, cmdline, err)
		}
	}
	if n == 0 {
		t.Fatalf("%s: no %s examples under Usage:", path, command)
	}
}

// splitArgs splits a command line at spaces outside double quotes and
// drops the quotes.
func splitArgs(line string) []string {
	var args []string
	var cur strings.Builder
	quoted := false
	for _, r := range line {
		switch {
		case r == '"':
			quoted = !quoted
		case r == ' ' && !quoted:
			if cur.Len() > 0 {
				args = append(args, cur.String())
				cur.Reset()
			}
		default:
			cur.WriteRune(r)
		}
	}
	if cur.Len() > 0 {
		args = append(args, cur.String())
	}
	return args
}
