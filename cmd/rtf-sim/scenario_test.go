package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rtf/ldp"
)

// TestScenarioTable checks the table against itself, the flag set and
// the mechanism registry: rows are told apart by their selectors, name
// only flags that exist, every flag is read by some row, and the default
// mechanism has what every row needs.
func TestScenarioTable(t *testing.T) {
	fs := flagSet(new(options))
	declared := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { declared[f.Name] = true })
	if len(declared) != 32 {
		t.Errorf("rtf-sim declares %d flags, want the same 32 as ever", len(declared))
	}
	mech, ok := ldp.Lookup(ldp.FutureRand)
	if !ok {
		t.Fatal("futurerand not registered")
	}
	read := map[string]bool{}
	seen := map[string]string{}
	for _, sc := range scenarios {
		key := strings.Join(sc.selects, " ")
		if other, dup := seen[key]; dup {
			t.Errorf("rows %s and %s are both selected by %q", other, sc.name, key)
		}
		seen[key] = sc.name
		if !slices.IsSortedFunc(sc.selects, func(a, b string) int { return slices.Index(selectors, a) - slices.Index(selectors, b) }) {
			t.Errorf("row %s: selectors %v are not in the canonical order %v", sc.name, sc.selects, selectors)
		}
		for _, f := range sc.selects {
			if !slices.Contains(selectors, f) {
				t.Errorf("row %s is selected by -%s, which is not a selector", sc.name, f)
			}
		}
		for _, f := range append(strings.Fields(commonReads+sc.reads), sc.selects...) {
			if read[f] = true; !declared[f] {
				t.Errorf("row %s reads -%s, which is not a flag", sc.name, f)
			}
		}
		if (sc.run == nil) != (sc.mode == nil) || (sc.run == nil) != (sc.topology == nil) {
			t.Errorf("row %s has only some of mode, topology and choreography", sc.name)
		}
		if missing := lacking(mech.Caps, sc.needs); len(missing) > 0 {
			t.Errorf("row %s needs %v, which futurerand lacks", sc.name, missing)
		}
		args := []string{}
		for _, f := range sc.selects {
			if args = append(args, "-"+f); f == "drive" {
				args = append(args, "127.0.0.1:1")
			}
		}
		if _, got, err := configure(args); err != nil || got.name != sc.name {
			t.Errorf("%v resolves to %v, %v; want row %s", args, got, err, sc.name)
		}
	}
	for f := range declared {
		if !read[f] {
			t.Errorf("no row reads -%s", f)
		}
	}
	if got := lacking(ldp.Capabilities{Sharded: true}, ldp.Capabilities{Sharded: true, Durable: true, Domain: true}); !slices.Equal(got, []string{"Durable", "Domain"}) {
		t.Errorf("lacking names %v, want [Durable Domain]", got)
	}
}

// TestFlagsThatFitNoScenario pins the refusals: a flag set that is not a
// row fails naming the flag at fault instead of silently dropping it.
func TestFlagsThatFitNoScenario(t *testing.T) {
	for args, want := range map[string]string{
		"-domain -soak":             "-soak does not combine with -domain (no such scenario)",
		"-domain -exact":            "-exact does not combine with -domain",
		"-domain -consistency":      "-consistency does not combine with -domain",
		"-domain -write-workload f": "-write-workload does not combine with -domain",
		"-domain -soak-backends 2":  "-soak-backends does not combine with -domain",
		"-hashed -recover":          "-recover -hashed needs -domain",
		"-hashed":                   "-hashed needs -domain",
		"-membership -hashed":       "-hashed -membership needs -domain",
		"-recover -exact":           "-exact does not combine with -recover",
		"-cluster -series":          "-series does not combine with -cluster",
		"-drive x -serve-bin y":     "-serve-bin does not combine with -drive",
		"-recover -m 8":             "-m does not combine with -recover",
		"-domain -buckets 64":       "-buckets does not combine with -domain",
		"-conns 2":                  "-conns does not combine with the offline run",
		"-recover stray":            `unexpected argument "stray"`,
	} {
		if _, sc, err := configure(strings.Fields(args)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("rtf-sim %s: resolved to %v, %v; want an error containing %q", args, sc, err, want)
		}
	}
	// Every pair of selectors is a row or a refusal that names one of the
	// two.
	for i, a := range selectors {
		for _, b := range selectors[i+1:] {
			args := []string{"-" + a, "-" + b}
			if a == "drive" {
				args = []string{"-drive", "x", "-" + b}
			}
			_, sc, err := configure(args)
			isRow := slices.ContainsFunc(scenarios, func(sc scenario) bool { return slices.Equal(sc.selects, []string{a, b}) })
			switch {
			case isRow && (err != nil || !slices.Equal(sc.selects, []string{a, b})):
				t.Errorf("%v: got %v, %v; want its row", args, sc, err)
			case !isRow && (err == nil || !strings.Contains(err.Error(), "-"+a) && !strings.Contains(err.Error(), "-"+b)):
				t.Errorf("%v: got %v, %v; want a refusal naming one of them", args, sc, err)
			}
		}
	}
	// An explicit =false leaves a selector unset.
	if _, sc, err := configure([]string{"-recover", "-domain=false"}); err != nil || sc.name != "recover" {
		t.Errorf("-recover -domain=false: got %v, %v", sc, err)
	}
}

// TestDocumentedInvocationsResolve parses every `rtf-sim -…` command
// line quoted in the CI workflow, the README and the verify notes and
// resolves it through the table, so the docs cannot drift from it.
func TestDocumentedInvocationsResolve(t *testing.T) {
	found := 0
	for _, path := range []string{"../../.github/workflows/ci.yml", "../../README.md", "../../.claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Logf("skipping %s: %v", path, err)
			continue
		}
		for _, line := range strings.Split(strings.ReplaceAll(string(data), "\\\n", " "), "\n") {
			for {
				_, rest, ok := strings.Cut(line, "rtf-sim ")
				if !ok {
					break
				}
				line = rest
				if end := strings.IndexAny(rest, "`*—(),;|&>"); end >= 0 {
					rest = rest[:end]
				}
				args := strings.Fields(rest)
				if len(args) == 0 || !strings.HasPrefix(args[0], "-") {
					continue
				}
				if args[len(args)-1] == "-drive" { // prose naming the flag without an address
					args = append(args, "ADDR")
				}
				found++
				if _, _, err := configure(args); err != nil {
					t.Errorf("%s quotes `rtf-sim %s`: %v", path, strings.Join(args, " "), err)
				}
			}
		}
	}
	if found < 12 {
		t.Errorf("found only %d quoted invocations; the parser has lost the docs", found)
	}
}

// TestCrashScenariosEndToEnd builds the three binaries and runs the
// crash choreography over a single node in two modes and over a gateway:
// real processes, a real kill -9, exit 0 and a last line that says
// bit-for-bit.
func TestCrashScenariosEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns rtf-serve and rtf-gateway processes")
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "rtf/cmd/rtf-serve", "rtf/cmd/rtf-gateway", "rtf/cmd/rtf-sim").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, row := range []string{"-recover", "-recover -domain", "-cluster"} {
		t.Run(row, func(t *testing.T) {
			cmd := exec.Command(filepath.Join(bin, "rtf-sim"), append(strings.Fields(row), "-n", "400", "-d", "64")...)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("rtf-sim %s: %v\n%s\n%s", row, err, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			if last := lines[len(lines)-1]; !strings.Contains(last, "recovered bit-for-bit") || !strings.Contains(last, "exited 0") {
				t.Fatalf("rtf-sim %s ended with %q", row, last)
			}
		})
	}
}
