package ldp

import (
	"go/build"
	"slices"
	"strings"
	"testing"
)

// TestClientLinksNoServer pins the client/server split at link time:
// what a program that imports the client library links. Each row walks
// a package's non-test import closure, standard library included, and
// fails on every package in it the row forbids, naming the import chain
// that brought it in.
//
//   - rtf/ldp links no serving core (transport, its durable store and
//     metrics server, the cluster fronts), no simulation engine and no
//     network stack: importing net/http/pprof, for one, registers the
//     profiler on http.DefaultServeMux in every program that links it.
//   - rtf/internal/wire, the byte format ldp encodes with, links from
//     this module only the protocol packages its frames carry (dyadic,
//     protocol, hh, membership and what they import), and no network
//     stack either.
func TestClientLinksNoServer(t *testing.T) {
	isNet := func(p string) bool { return p == "net" || strings.HasPrefix(p, "net/") }
	serving := []string{"transport", "persist", "obs", "sim", "consistency", "cluster", "front"}
	protocolClosure := map[string]bool{"rtf/internal/wire": true}
	for _, p := range []string{"dyadic", "protocol", "hh", "membership"} {
		for dep := range importClosure(t, "rtf/internal/"+p) {
			protocolClosure[dep] = true
		}
	}
	rows := []struct {
		root      string
		forbidden func(string) bool
	}{
		{"rtf/ldp", func(p string) bool {
			return isNet(p) || slices.Contains(serving, strings.TrimPrefix(p, "rtf/internal/"))
		}},
		{"rtf/internal/wire", func(p string) bool {
			return isNet(p) || strings.HasPrefix(p, "rtf/") && !protocolClosure[p]
		}},
	}
	for _, row := range rows {
		via := importClosure(t, row.root)
		var bad []string
		for p := range via {
			if row.forbidden(p) {
				bad = append(bad, p)
			}
		}
		slices.Sort(bad)
		for _, p := range bad {
			chain := []string{p}
			for q := via[p]; q != ""; q = via[q] {
				chain = append(chain, q)
			}
			slices.Reverse(chain)
			t.Errorf("%s links %s (%s)", row.root, p, strings.Join(chain, " → "))
		}
	}
}

// importClosure returns every package root imports outside its tests,
// root included, each mapped to a package that imports it (root to "").
func importClosure(t *testing.T, root string) map[string]string {
	t.Helper()
	via := map[string]string{root: ""}
	queue := []struct{ path, dir string }{{root, "."}}
	for len(queue) > 0 {
		next := queue[0]
		queue = queue[1:]
		pkg, err := build.Import(next.path, next.dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", next.path, err)
		}
		for _, imp := range pkg.Imports {
			if _, seen := via[imp]; seen || imp == "C" {
				continue
			}
			via[imp] = next.path
			queue = append(queue, struct{ path, dir string }{imp, pkg.Dir})
		}
	}
	return via
}
