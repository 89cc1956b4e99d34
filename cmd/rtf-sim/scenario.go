package main

import (
	"fmt"
	"slices"
	"strings"
)

// scenario is one row of the acceptance matrix: the flags that select it,
// the protocol mode it drives, the topology it deploys, and the
// choreography it runs over the two. Every server-driving row needs a
// dyadic mechanism (ldp.Mechanism.Dyadic), the only kind rtf-serve and
// rtf-gateway host.
type scenario struct {
	name     string   // output prefix, and the row's name in the docs
	selects  []string // the selector flags that, set together and alone, pick this row
	reads    string   // the other flags the row reads, beyond commonReads
	mode     func(*options) (m *mode, users int, err error)
	topology func(*options) (topology, error)
	run      func(name string, dep *deployment, st *driver, o *options) error
}

// selectors are the flags that pick a scenario, in the order error
// messages list them.
var selectors = []string{"drive", "recover", "cluster", "domain", "hashed", "membership", "soak"}

// Flag groups a row reads. A flag outside its row's set is refused, not
// dropped: `-domain -soak` used to run the domain scenario and exit 0.
const (
	commonReads = "n d k eps seed protocol"
	boolReads   = " workload read-workload"
	domainReads = " m zipf-s"
	connReads   = " conns batch"
	spawnReads  = connReads + " serve-bin gateway-bin"
	soakReads   = " qps duration soak-backends queue p99-ceiling metrics-dump"
)

// scenarios is the matrix. Adding a cell is adding a row; a combination
// that is not a row does not exist and is refused by resolve. Among rows
// that fit a refused flag set equally well the first is the one the error
// names, so the order is part of the interface.
var scenarios = []scenario{
	{name: "offline", reads: boolReads + " write-workload exact consistency series"},
	{name: "drive", selects: []string{"drive"}, reads: boolReads + connReads,
		mode: newBoolMode, topology: external, run: crash},
	{name: "recover", selects: []string{"recover"}, reads: boolReads + spawnReads,
		mode: newBoolMode, topology: single, run: crash},
	{name: "cluster", selects: []string{"cluster"}, reads: boolReads + spawnReads,
		mode: newBoolMode, topology: static3, run: crash},
	{name: "domain", selects: []string{"domain"}, reads: domainReads + spawnReads,
		mode: newExactMode, topology: static3, run: crash},
	{name: "hashed", selects: []string{"domain", "hashed"}, reads: domainReads + " buckets" + spawnReads,
		mode: newHashedMode, topology: static3, run: crash},
	{name: "recover-domain", selects: []string{"recover", "domain"}, reads: domainReads + spawnReads,
		mode: newExactMode, topology: single, run: crash},
	{name: "recover-hashed", selects: []string{"recover", "domain", "hashed"}, reads: domainReads + " buckets" + spawnReads,
		mode: newHashedMode, topology: single, run: crash},
	{name: "membership", selects: []string{"membership"}, reads: boolReads + spawnReads,
		mode: newBoolMode, topology: members3, run: membership},
	{name: "membership-domain", selects: []string{"domain", "membership"}, reads: domainReads + spawnReads,
		mode: newExactMode, topology: members3, run: membership},
	{name: "membership-hashed", selects: []string{"domain", "hashed", "membership"}, reads: domainReads + " buckets" + spawnReads,
		mode: newHashedMode, topology: members3, run: membership},
	{name: "soak", selects: []string{"soak"}, reads: boolReads + spawnReads + soakReads,
		mode: newBoolMode, topology: soakTarget, run: soak},
}

// dashed spells a flag list for an error message.
func dashed(flags []string) string {
	if len(flags) == 0 {
		return "the offline run"
	}
	return "-" + strings.Join(flags, " -")
}

// subset reports whether every flag of a is in b.
func subset(a, b []string) bool {
	return !slices.ContainsFunc(a, func(f string) bool { return !slices.Contains(b, f) })
}

// resolve maps the flags set on the command line to exactly one row, or
// fails naming the flag that fits no row.
func resolve(set []string) (*scenario, error) {
	var sel []string
	for _, f := range selectors {
		if slices.Contains(set, f) {
			sel = append(sel, f)
		}
	}
	var row, widest, narrowest *scenario // the match; the largest row inside sel; the smallest row around it
	for i := range scenarios {
		sc := &scenarios[i]
		switch in, around := subset(sc.selects, sel), subset(sel, sc.selects); {
		case in && around:
			row = sc
		case in && (widest == nil || len(sc.selects) > len(widest.selects)):
			widest = sc
		case around && (narrowest == nil || len(sc.selects) < len(narrowest.selects)):
			narrowest = sc
		}
	}
	switch {
	case row == nil && narrowest != nil:
		missing := slices.DeleteFunc(slices.Clone(narrowest.selects), func(f string) bool { return slices.Contains(sel, f) })
		return nil, fmt.Errorf("%s needs %s (no scenario is selected by %s alone)", dashed(sel), dashed(missing), dashed(sel))
	case row == nil:
		extra := slices.IndexFunc(sel, func(f string) bool { return !slices.Contains(widest.selects, f) })
		return nil, fmt.Errorf("-%s does not combine with %s (no such scenario)", sel[extra], dashed(widest.selects))
	}
	reads := append(strings.Fields(commonReads+row.reads), row.selects...)
	for _, f := range set {
		if !slices.Contains(reads, f) {
			return nil, fmt.Errorf("-%s does not combine with %s (no such scenario)", f, dashed(row.selects))
		}
	}
	return row, nil
}
