package eval

import (
	"bytes"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9",
		"E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20", "E21", "E22"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("%d experiments registered, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("position %d: %s, want %s", i, all[i].ID, id)
		}
		if all[i].Title == "" || all[i].Claim == "" || all[i].Run == nil {
			t.Errorf("%s: incomplete metadata", id)
		}
	}
}

// TestREADMETable checks that README.md's "Reproduction experiments"
// table, which the package and cmd/rtf-experiments point readers at, has
// one row per registered experiment, in order.
func TestREADMETable(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var rows, ids []string
	for _, m := range regexp.MustCompile(`(?m)^\| (E\d+) +\|`).FindAllSubmatch(readme, -1) {
		rows = append(rows, string(m[1]))
	}
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	if !reflect.DeepEqual(rows, ids) {
		t.Fatalf("README.md table rows %v, registered experiments %v", rows, ids)
	}
}

func TestByID(t *testing.T) {
	if e, ok := ByID("E5"); !ok || e.ID != "E5" {
		t.Error("ByID(E5) failed")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("ByID(E99) succeeded")
	}
}

// TestAllExperimentsQuick runs every experiment at quick scale: each must
// complete without error and produce a plausible table.
func TestAllExperimentsQuick(t *testing.T) {
	cfg := Config{Quick: true, Seed: 42}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			if err := e.Run(&buf, cfg); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			out := buf.String()
			if !strings.Contains(out, e.ID) {
				t.Errorf("%s: output missing banner", e.ID)
			}
			if len(out) < 100 {
				t.Errorf("%s: suspiciously short output:\n%s", e.ID, out)
			}
		})
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	// Same seed ⇒ identical output (E5, the c_gap table, and E7, the
	// dyadic decomposition, are cheap and fully deterministic).
	for _, id := range []string{"E5", "E7"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatal(id)
		}
		var a, b bytes.Buffer
		if err := e.Run(&a, Config{Quick: true, Seed: 7}); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(&b, Config{Quick: true, Seed: 7}); err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Errorf("%s: output differs across identical runs", id)
		}
	}
}

// TestQuickTablesGolden pins every experiment's quick-scale output at
// seed 7, byte for byte, to testdata/quick-seed7.golden. The tables hold
// no timings, and the engines draw the same numbers at any GOMAXPROCS,
// so the file moves only when a change moves a table: such a change
// rewrites the file in its own commit and says which tables moved.
func TestQuickTablesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/quick-seed7.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, e := range All() {
		if err := e.Run(&got, Config{Quick: true, Seed: 7}); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("quick tables differ from the golden at line %d:\n got: %q\nwant: %q", i+1, gl, wl)
		}
	}
}

func TestE6AllChecksPass(t *testing.T) {
	e, _ := ByID("E6")
	var buf bytes.Buffer
	if err := e.Run(&buf, Config{Quick: true, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "false") {
		t.Errorf("privacy check failed:\n%s", buf.String())
	}
}

func TestIDNum(t *testing.T) {
	if idNum("E12") != 12 || idNum("E1") != 1 {
		t.Error("idNum wrong")
	}
}
