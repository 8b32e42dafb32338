package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// checkGuard is the exact-repeat guard. The simulated-time counts and the
// number of operations sent depend only on the workload, --seed and
// --seconds, so every run with the same arguments must reproduce them
// bit for bit; a difference means the runs did not do the same work. The
// first run with a set of arguments records its figures under
// .bench_build/perfbench in the working directory; later runs compare.
func checkGuard(r *run) bool {
	names := make([]string, 0, len(r.exact))
	for n := range r.exact {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("exact %-16s %.6f\n", n, r.exact[n])
	}
	dir := filepath.Join(".bench_build", "perfbench")
	path := filepath.Join(dir, fmt.Sprintf("exact-%s-seed%d-%ds-trace%v.json", r.workload, r.seed, r.seconds, r.traced))
	if b, err := os.ReadFile(path); err == nil {
		var prev map[string]float64
		if err := json.Unmarshal(b, &prev); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: unreadable %s: %v\n", path, err)
			return false
		}
		same := len(prev) == len(r.exact)
		for _, n := range names {
			if p, ok := prev[n]; !ok || p != r.exact[n] {
				fmt.Fprintf(os.Stderr, "perfbench: %s = %v, but an earlier run with the same arguments had %v\n", n, r.exact[n], p)
				same = false
			}
		}
		return same
	}
	b, err := json.Marshal(r.exact)
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err == nil {
		err = os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: recording exact figures:", err)
	}
	return true
}
