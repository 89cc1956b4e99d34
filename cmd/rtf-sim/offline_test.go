package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// runOffline resolves args, which must select the offline run, and
// returns what it prints without the elapsed line.
func runOffline(t *testing.T, args string) (string, error) {
	t.Helper()
	o, sc, err := configure(strings.Fields(args))
	if err != nil {
		t.Fatalf("rtf-sim %s: %v", args, err)
	}
	if sc.run != nil {
		t.Fatalf("rtf-sim %s resolves to row %s, not the offline run", args, sc.name)
	}
	var out bytes.Buffer
	err = offline(o, &out)
	var kept []string
	for _, line := range strings.SplitAfter(out.String(), "\n") {
		if !strings.HasPrefix(line, "elapsed") {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, ""), err
}

// metric reads one "name  value" line of an offline run's output.
func metric(t *testing.T, out, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, name); ok {
			v, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				t.Fatalf("%s line %q: %v", name, line, err)
			}
			return v
		}
	}
	t.Fatalf("no %s line in:\n%s", name, out)
	return 0
}

// TestOfflineRefusals pins the offline run's fail-closed refusals: a
// flag its engine would silently ignore is an error, not a no-op.
func TestOfflineRefusals(t *testing.T) {
	for args, want := range map[string]string{
		"-exact -protocol central-binary":       "-exact does not apply to central-binary",
		"-consistency -protocol erlingsson":     "consistency post-processing applies to framework protocols only",
		"-consistency -protocol naive-split":    "consistency post-processing applies to framework protocols only",
		"-consistency -protocol central-binary": "consistency post-processing applies to framework protocols only",
		"-protocol bogus":                       `unknown protocol "bogus"`,
	} {
		out, err := runOffline(t, args+" -n 100 -d 16")
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("rtf-sim %s: got %v; want an error containing %q", args, err, want)
		}
		if out != "" {
			t.Errorf("rtf-sim %s printed before refusing:\n%s", args, out)
		}
	}
}

// TestOfflineRunsEveryProtocol: every built-in protocol runs offline
// and prints its metrics, a fixed seed reproduces the output, the exact
// engines run, the FutureRand error sits inside its Hoeffding bound, and
// consistency post-processing lowers the RMSE.
func TestOfflineRunsEveryProtocol(t *testing.T) {
	const small = " -n 1000 -d 32 -k 2 -seed 3"
	for _, p := range []string{"futurerand", "independent", "bun", "erlingsson", "naive-split", "central-binary"} {
		out, err := runOffline(t, "-protocol "+p+small)
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if !strings.HasPrefix(out, "protocol="+p+" workload=uniform n=1000 d=32 k=2 ") {
			t.Errorf("%s: header %q", p, strings.SplitN(out, "\n", 2)[0])
		}
		if mx, rmse := metric(t, out, "max error"), metric(t, out, "RMSE"); mx <= 0 || rmse <= 0 || mx < rmse {
			t.Errorf("%s: max error %v, RMSE %v", p, mx, rmse)
		}
		if again, _ := runOffline(t, "-protocol "+p+small); again != out {
			t.Errorf("%s: the same seed printed\n%s\nthen\n%s", p, out, again)
		}
	}
	for _, p := range []string{"futurerand", "erlingsson", "naive-split"} {
		if _, err := runOffline(t, "-exact -protocol "+p+" -n 200 -d 16 -k 2"); err != nil {
			t.Errorf("-exact %s: %v", p, err)
		}
	}
	out, err := runOffline(t, "-series"+small)
	if err != nil {
		t.Fatal(err)
	}
	if metric(t, out, "max error") > metric(t, out, "Hoeffding bound (beta=0.05)") {
		t.Errorf("futurerand error exceeds its bound (possible but 5%% unlikely):\n%s", out)
	}
	if _, rows, _ := strings.Cut(out, "t,truth,estimate\n"); strings.Count(rows, "\n") != 32 {
		t.Errorf("-series printed %d rows, want 32", strings.Count(rows, "\n"))
	}
	const wide = " -n 2000 -d 64 -k 2 -seed 9"
	raw, err := runOffline(t, wide)
	if err != nil {
		t.Fatal(err)
	}
	smooth, err := runOffline(t, "-consistency"+wide)
	if err != nil {
		t.Fatal(err)
	}
	if r, s := metric(t, raw, "RMSE"), metric(t, smooth, "RMSE"); s >= r {
		t.Errorf("consistency RMSE %v, raw %v: post-processing did not help", s, r)
	}
}
