// Command omg-bench regenerates every table, figure and numeric claim of
// the paper's evaluation. Without flags it runs all experiments at full
// size and renders text tables; -md emits markdown tables.
//
// Usage:
//
//	omg-bench                   run everything (trains the model first)
//	omg-bench -run E1,E7        run selected experiments
//	omg-bench -quick            smaller corpus/keys, for smoke runs
//	omg-bench -list             list experiment IDs
//	omg-bench -md               markdown output
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/harness"
)

func main() {
	runList := flag.String("run", "", "comma-separated experiment IDs (default: all)")
	quick := flag.Bool("quick", false, "reduced workloads (smaller corpus, smaller HE keys)")
	list := flag.Bool("list", false, "list experiments and exit")
	md := flag.Bool("md", false, "render markdown instead of text tables")
	quiet := flag.Bool("q", false, "suppress progress logging")
	flag.Parse()

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	var selected []harness.Experiment
	if *runList == "" {
		selected = harness.Experiments()
	} else {
		for _, id := range strings.Split(*runList, ",") {
			id = strings.TrimSpace(id)
			e, ok := harness.Lookup(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "omg-bench: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	var logw io.Writer
	if !*quiet {
		logw = os.Stderr
	}
	ctx := harness.NewCtx(*quick, logw)
	failed := 0
	for _, e := range selected {
		table, err := e.Run(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "omg-bench: %s failed: %v\n", e.ID, err)
			failed++
			continue
		}
		if *md {
			fmt.Print(table.Markdown())
		} else {
			table.Render(os.Stdout)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}
