package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseBackends(t *testing.T) {
	cases := []struct {
		name    string
		spec    string
		want    []string
		wantErr string
	}{
		{name: "single", spec: "localhost:7610", want: []string{"localhost:7610"}},
		{
			name: "three ordered",
			spec: "a:1,b:2,c:3",
			want: []string{"a:1", "b:2", "c:3"},
		},
		{
			name: "whitespace trimmed",
			spec: " a:1 , b:2 ",
			want: []string{"a:1", "b:2"},
		},
		{name: "empty spec", spec: "", wantErr: "-backends is required"},
		{name: "blank spec", spec: "   ", wantErr: "-backends is required"},
		{name: "empty element", spec: "a:1,,c:3", wantErr: "element 1 is empty"},
		{name: "trailing comma", spec: "a:1,b:2,", wantErr: "element 2 is empty"},
		{
			name:    "duplicate",
			spec:    "a:1,b:2,a:1",
			wantErr: "lists a:1 twice (elements 0 and 2)",
		},
		{
			name:    "duplicate after trim",
			spec:    "a:1, a:1",
			wantErr: "lists a:1 twice (elements 0 and 1)",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseBackends(tc.spec)
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("parseBackends(%q) = %v, want error containing %q", tc.spec, got, tc.wantErr)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("parseBackends(%q) error = %q, want it to contain %q", tc.spec, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseBackends(%q): %v", tc.spec, err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("parseBackends(%q) = %v, want %v", tc.spec, got, tc.want)
			}
		})
	}
}

// TestParseConfig is the mode × topology table of rtf-gateway
// (README.md, "serving core"): one accepted row per served cell — every
// mode and every read-path flag over either topology — and every refused
// flag set with the message the operator sees.
func TestParseConfig(t *testing.T) {
	split := func(s string) []string { return strings.Fields(s) }
	const (
		static  = "-backends a:1,b:2"
		members = "-members n0=a:1,n1=b:2,n2=c:3"
		loloha  = "-m 100000 -encoding loloha -buckets 64 -hash-seed 7"
	)

	accepted := []struct {
		name, args string
		backends   int
		members    int
		hashed     bool
	}{
		{name: "bool static", args: static, backends: 2},
		{name: "bool static with read-path flags", args: static + " -hedge 5ms -fetch-timeout 1s -answer-cache-ttl 50ms", backends: 2},
		{name: "exact static", args: static + " -m 64", backends: 2},
		{name: "hashed static", args: static + " " + loloha, backends: 2, hashed: true},
		{name: "bool members", args: members + " -replicas 2 -vshards 16", members: 3},
		{name: "exact members", args: members + " -m 64", members: 3},
		{name: "members × loloha", args: members + " " + loloha, members: 3, hashed: true},
		{name: "members × hedge", args: members + " -hedge 5ms", members: 3},
		{name: "members × fetch-timeout", args: members + " -fetch-timeout 1s", members: 3},
		{name: "members × answer-cache-ttl", args: members + " -answer-cache-ttl 50ms", members: 3},
	}
	for _, tc := range accepted {
		t.Run("accepts "+tc.name, func(t *testing.T) {
			cfg, err := parseConfig(split(tc.args))
			if err != nil {
				t.Fatal(err)
			}
			if len(cfg.backends) != tc.backends || len(cfg.members) != tc.members || cfg.enc.Hashed() != tc.hashed {
				t.Fatalf("resolved %d backends, %d members, hashed=%v; want %d, %d, %v",
					len(cfg.backends), len(cfg.members), cfg.enc.Hashed(), tc.backends, tc.members, tc.hashed)
			}
			if cfg.scale <= 0 || cfg.mode == nil {
				t.Fatalf("estimator scale %v, mode %v not resolved", cfg.scale, cfg.mode)
			}
		})
	}

	refused := []struct {
		name, args, want string
	}{
		{"no topology", "", "-backends is required"},
		{"non-pow2 d", static + " -d 1000", "d=1000 is not a power of two"},
		{"unknown mechanism", static + " -mechanism nope", `unknown mechanism "nope"`},
		{"mechanism not clustered", static + " -mechanism naive-split", "cannot be clustered"},
		{"domain size below 2", static + " -m 1", "m=1 must be at least 2"},
		{"buckets without loloha", static + " -m 64 -buckets 8", "-buckets and -hash-seed only apply with -encoding loloha"},
		{"encoding without -m", static + " -encoding loloha", "-encoding, -buckets and -hash-seed require domain mode (-m)"},
		{"hash-seed without -m", static + " -hash-seed 3", "-encoding, -buckets and -hash-seed require domain mode (-m)"},
		{"members with backends", members + " " + static, "-members and -backends are mutually exclusive"},
		{"malformed member", "-members n0", "is not id=addr"},
		{"vshards out of range", members + " -vshards 0", "vshards=0 outside"},
		{"duplicate backend", "-backends a:1,a:1", "lists a:1 twice"},
		{"eps out of range", static + " -eps 0", "epsilon 0 must be positive"},
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
