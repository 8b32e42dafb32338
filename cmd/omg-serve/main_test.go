package main

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/clitest"
	"repro/internal/core"
)

// TestServeConfigValidate pins the flag validation table: each rejected
// configuration produces a usage error naming the offending flag, and
// accepted configurations parse into the expected model/tenant maps.
func TestServeConfigValidate(t *testing.T) {
	base := serveConfig{TCPAddr: "127.0.0.1:0", Models: "default=1:7", Drain: time.Second}

	cases := []struct {
		name    string
		mutate  func(*serveConfig)
		wantErr string // substring of the usage error; empty means valid
	}{
		{"defaults", func(c *serveConfig) {}, ""},
		{"no listeners", func(c *serveConfig) { c.TCPAddr = "" }, "nothing to listen on"},
		{"unix only", func(c *serveConfig) { c.TCPAddr = ""; c.UnixPath = "/tmp/omg.sock" }, ""},
		{"negative workers", func(c *serveConfig) { c.Workers = -1 }, "-workers"},
		{"negative shards", func(c *serveConfig) { c.Shards = -2 }, "-shards"},
		{"negative drain", func(c *serveConfig) { c.Drain = -time.Second }, "-drain"},
		{"empty models", func(c *serveConfig) { c.Models = "" }, "-models is empty"},
		{"models trailing comma", func(c *serveConfig) { c.Models = "kws=1:7," }, ""},
		{"models missing seed", func(c *serveConfig) { c.Models = "kws=1" }, "want name=mul:seed"},
		{"models missing name", func(c *serveConfig) { c.Models = "=1:7" }, "want name=mul:seed"},
		{"models zero mul", func(c *serveConfig) { c.Models = "kws=0:7" }, "multiplier"},
		{"models junk seed", func(c *serveConfig) { c.Models = "kws=1:x" }, "seed"},
		{"models duplicate", func(c *serveConfig) { c.Models = "kws=1:7,kws=2:9" }, "duplicate model"},
		{"two models", func(c *serveConfig) { c.Models = "kws=1:7,far=2:13" }, ""},
		{"default model known", func(c *serveConfig) { c.Models = "kws=1:7,far=2:13"; c.DefaultModel = "far" }, ""},
		{"default model unknown", func(c *serveConfig) { c.DefaultModel = "zzz" }, "-default-model"},
		{"tenants ok", func(c *serveConfig) { c.Tenants = "acme=10:256,trial=1:16" }, ""},
		{"tenants malformed", func(c *serveConfig) { c.Tenants = "acme" }, "want name=weight:cap"},
		{"tenants zero weight", func(c *serveConfig) { c.Tenants = "acme=0:16" }, "weight"},
		{"tenants zero cap", func(c *serveConfig) { c.Tenants = "acme=1:0" }, "queue cap"},
		{"tenants duplicate", func(c *serveConfig) { c.Tenants = "acme=1:16,acme=2:32" }, "duplicate tenant"},
		{"breaker knobs ok", func(c *serveConfig) { c.BreakerThreshold = 3; c.BreakerCooldown = time.Second }, ""},
		{"negative breaker threshold", func(c *serveConfig) { c.BreakerThreshold = -1 }, "-breaker-threshold"},
		{"negative breaker cooldown", func(c *serveConfig) { c.BreakerCooldown = -time.Second }, "-breaker-cooldown"},
		{"overload target ok", func(c *serveConfig) { c.OverloadTarget = 10 * time.Millisecond }, ""},
		{"negative overload target", func(c *serveConfig) { c.OverloadTarget = -time.Millisecond }, "-overload-target"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			models, tenants, err := cfg.validate()
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("validate accepted %+v", cfg)
				}
				var ue usageError
				if ok := errorsAs(err, &ue); !ok {
					t.Fatalf("validation error is not a usageError: %v", err)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %q does not mention %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("validate rejected %+v: %v", cfg, err)
			}
			if len(models) == 0 {
				t.Fatal("valid config parsed zero models")
			}
			_ = tenants
		})
	}

	// Parsed values survive the round trip, not just acceptance.
	cfg := base
	cfg.Models = "kws=2:13"
	cfg.Tenants = "acme=10:256"
	models, tenants, err := cfg.validate()
	if err != nil {
		t.Fatal(err)
	}
	if m := models["kws"]; m.mul != 2 || m.seed != 13 {
		t.Fatalf("model spec parsed wrong: %+v", m)
	}
	if ten := tenants["acme"]; ten.Weight != 10 || ten.MaxQueue != 256 {
		t.Fatalf("tenant config parsed wrong: %+v", ten)
	}
}

// errorsAs adapts errors.As to a concrete (non-pointer-receiver) target.
func errorsAs(err error, target *usageError) bool {
	ue, ok := err.(usageError)
	if ok {
		*target = ue
	}
	return ok
}

// TestFormatHealth pins the SIGUSR1 dump format: swap-failure count, model
// versions, and per-shard breaker lines all present.
func TestFormatHealth(t *testing.T) {
	out := formatHealth([]core.ModelHealth{{
		Model:   "kws",
		Version: 3,
		Shards: []core.ShardStatus{
			{Shard: 0, State: core.BreakerClosed, Gen: 2, FailureRate: 0.25, Rebuilds: 1, Workers: 4, Live: 4},
			{Shard: 1, State: core.BreakerOpen, ConsecutiveFailures: 7, Trips: 2, Workers: 4, Live: 0},
		},
	}}, 5)
	for _, want := range []string{
		"swap failures: 5",
		"kws v3",
		"shard 0: closed gen=2 rate=25.0% consec=0 trips=0 rebuilds=1 workers=4/4",
		"shard 1: open gen=0 rate=0.0% consec=7 trips=2 rebuilds=0 workers=0/4",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("health dump missing %q:\n%s", want, out)
		}
	}
}

// TestUsageExamplesParse: every example in the package doc's Usage section
// parses with omg-serve's flag set, leaves no stray argument and validates.
func TestUsageExamplesParse(t *testing.T) {
	clitest.CheckUsageExamples(t, "main.go", "omg-serve", func(args []string) error {
		fs := flag.NewFlagSet("omg-serve", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		var cfg serveConfig
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
