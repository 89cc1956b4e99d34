package main

import (
	"flag"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestParseConfig is the mode × topology × durability table of
// rtf-serve (README.md, "serving core"): one accepted row per cell, all
// twelve served, and every refused flag set with the message the
// operator sees.
func TestParseConfig(t *testing.T) {
	split := func(s string) []string { return strings.Fields(s) }
	const loloha = "-m 100000 -encoding loloha -buckets 64 -hash-seed 7"

	accepted := []struct {
		name, args, mode string
	}{
		{"bool single", "", "boolean"},
		{"bool single durable", "-data-dir /tmp/x -fsync -wal-commit-interval 1ms", "boolean"},
		{"bool membership", "-membership -id n0", "boolean"},
		{"bool membership durable", "-membership -id n0 -vshards 16 -data-dir /tmp/x", "boolean"},
		{"exact single", "-m 64", "domain"},
		{"exact single durable", "-m 64 -data-dir /tmp/x", "domain"},
		{"exact membership", "-m 64 -membership -id n0", "domain"},
		{"membership × -m × -data-dir", "-m 64 -membership -id n0 -data-dir /tmp/x", "domain"},
		{"hashed single", loloha, "hashed-domain"},
		{"hashed single durable", loloha + " -data-dir /tmp/x", "hashed-domain"},
		{"membership × loloha", loloha + " -membership -id n0", "hashed-domain"},
		{"hashed membership durable", loloha + " -membership -id n0 -data-dir /tmp/x", "hashed-domain"},
		{"other mechanism", "-mechanism erlingsson -d 256 -k 4 -eps 0.5 -shards 16", "boolean"},
	}
	for _, tc := range accepted {
		t.Run("accepts "+tc.name, func(t *testing.T) {
			cfg, err := parseConfig(split(tc.args))
			if err != nil {
				t.Fatal(err)
			}
			if got := cfg.Mode.Name(); got != tc.mode {
				t.Fatalf("resolved mode %q, want %q", got, tc.mode)
			}
			if cfg.Scale <= 0 {
				t.Fatalf("estimator scale %v not resolved", cfg.Scale)
			}
		})
	}

	refused := []struct {
		name, args, want string
	}{
		{"non-pow2 d", "-d 1000", "d=1000 is not a power of two"},
		{"unknown mechanism", "-mechanism nope", `unknown mechanism "nope"`},
		{"mechanism not sharded", "-mechanism naive-split", "cannot be hosted on the sharded accumulator"},
		{"mechanism not domain-capable", "-mechanism central-binary -m 8", "cannot host domain tracking"},
		{"domain size below 2", "-m 1", "m=1 must be at least 2"},
		{"exact domain over the row cap", "-m 5000", "exceeds the exact encoding's 4096 limit"},
		{"buckets without loloha", "-m 64 -buckets 8", "-buckets and -hash-seed only apply with -encoding loloha"},
		{"hash-seed without loloha", "-m 64 -hash-seed 3", "-buckets and -hash-seed only apply with -encoding loloha"},
		{"encoding without -m", "-encoding loloha", "-encoding, -buckets and -hash-seed require domain mode (-m)"},
		{"buckets without -m", "-buckets 8", "-encoding, -buckets and -hash-seed require domain mode (-m)"},
		{"loloha without buckets", "-m 100000 -encoding loloha", "bucket count g=0"},
		{"membership without id", "-membership", "-membership requires -id"},
		{"vshards out of range", "-membership -id n0 -vshards 0", "vshards=0 outside"},
		{"shards below 1", "-shards 0", "shards=0 must be >= 1"},
		{"eps out of range", "-eps 0", "epsilon 0 must be positive"},
		{"unknown flag", "-no-such-flag", "flag provided but not defined"},
	}
	for _, tc := range refused {
		t.Run("refuses "+tc.name, func(t *testing.T) {
			_, err := parseConfig(split(tc.args))
			if err == nil {
				t.Fatalf("parseConfig(%q) accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("parseConfig(%q) error = %q, want it to contain %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestFlagSet pins every flag rtf-serve accepts, with its default: a
// deployment's scripts name these, so a rename or a moved default is a
// breaking change however the flags are registered. -shards defaults
// to the process's GOMAXPROCS.
func TestFlagSet(t *testing.T) {
	want := [][2]string{
		{"addr", ":7609"},
		{"buckets", "0"},
		{"d", "1024"},
		{"data-dir", ""},
		{"encoding", "exact"},
		{"eps", "1"},
		{"fsync", "false"},
		{"grace", "10s"},
		{"hash-seed", "0"},
		{"id", ""},
		{"k", "8"},
		{"m", "0"},
		{"mechanism", "futurerand"},
		{"membership", "false"},
		{"metrics", ""},
		{"pprof", "false"},
		{"queue", "0"},
		{"shards", strconv.Itoa(runtime.GOMAXPROCS(0))},
		{"snapshot-every", "1m0s"},
		{"stats", "0s"},
		{"tolerate-torn-tail", "false"},
		{"vshards", "64"},
		{"wal-commit-interval", "0s"},
	}
	var got [][2]string
	flagSet(new(config)).VisitAll(func(f *flag.Flag) { got = append(got, [2]string{f.Name, f.DefValue}) })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flags (name, default):\n got %q\nwant %q", got, want)
	}
}
