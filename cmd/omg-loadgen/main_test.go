package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"testing"
	"time"

	"repro/internal/clitest"
	"repro/internal/loadgen"
)

// testDevNull opens the discard sink for run's human-readable output.
func testDevNull(t *testing.T) *os.File {
	t.Helper()
	f, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// validCfg is a baseline config every validation test perturbs.
func validCfg() genConfig {
	return genConfig{
		Network:  "tcp",
		Inproc:   true,
		Rate:     100,
		Duration: time.Second,
		Conns:    1,
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*genConfig)
	}{
		{"addr and inproc", func(c *genConfig) { c.Addr = "x:1" }},
		{"neither addr nor inproc", func(c *genConfig) { c.Inproc = false }},
		{"zero rate", func(c *genConfig) { c.Rate = 0 }},
		{"unbounded schedule", func(c *genConfig) { c.Duration = 0 }},
		{"negative workers", func(c *genConfig) { c.Workers = -1 }},
		{"negative conns", func(c *genConfig) { c.Conns = -1 }},
		{"negative timeout", func(c *genConfig) { c.Timeout = -time.Second }},
		{"bad mix class", func(c *genConfig) { c.Mix = "turbo=1" }},
		{"bad mix weight", func(c *genConfig) { c.Mix = "oneshot=-1" }},
		{"mix not kv", func(c *genConfig) { c.Mix = "oneshot" }},
		{"tenant bad weight", func(c *genConfig) { c.Tenants = "acme=0" }},
		{"tenant duplicate", func(c *genConfig) { c.Tenants = "acme=1,acme=2" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := validCfg()
			tc.mut(&cfg)
			if _, _, err := cfg.validate(); err == nil {
				t.Fatalf("validate accepted %+v", cfg)
			}
		})
	}
}

func TestValidateAcceptsAndParses(t *testing.T) {
	cfg := validCfg()
	cfg.Mix = "oneshot=8, stream=1,batch=1"
	cfg.Tenants = "acme=10, trial=1, free"
	mix, tenants, err := cfg.validate()
	if err != nil {
		t.Fatal(err)
	}
	if mix != (loadgen.Mix{OneShot: 8, Stream: 1, Batch: 1}) {
		t.Fatalf("mix = %+v", mix)
	}
	want := []loadgen.TenantSpec{{Name: "acme", Weight: 10}, {Name: "trial", Weight: 1}, {Name: "free", Weight: 1}}
	if len(tenants) != len(want) {
		t.Fatalf("tenants = %+v", tenants)
	}
	for i := range want {
		if tenants[i] != want[i] {
			t.Fatalf("tenant %d = %+v, want %+v", i, tenants[i], want[i])
		}
	}
	// MaxArrivals alone also bounds the schedule.
	cfg = validCfg()
	cfg.Duration = 0
	cfg.MaxArrivals = 10
	if _, _, err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRunInproc drives the whole binary body against an in-process front
// end: a short open-loop run must complete without protocol errors.
func TestRunInproc(t *testing.T) {
	cfg := validCfg()
	cfg.Rate = 200
	cfg.Duration = 0
	cfg.MaxArrivals = 50
	cfg.Workers = 1
	if err := run(cfg, nil, testDevNull(t)); err != nil {
		t.Fatal(err)
	}
}

// TestUsageExamplesParse: every example in the package doc's Usage section
// parses with omg-loadgen's flag set, leaves no stray argument and
// validates.
func TestUsageExamplesParse(t *testing.T) {
	clitest.CheckUsageExamples(t, "main.go", "omg-loadgen", func(args []string) error {
		fs := flag.NewFlagSet("omg-loadgen", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		var cfg genConfig
		registerFlags(fs, &cfg)
		if err := fs.Parse(args); err != nil {
			return err
		}
		if fs.NArg() != 0 {
			return fmt.Errorf("stray arguments %q", fs.Args())
		}
		_, _, err := cfg.validate()
		return err
	})
}
