// Package eval defines the reproduction experiments, one per row of the
// table in README.md, "Reproduction experiments": each experiment
// validates a theorem, lemma or comparison from the paper and
// regenerates a table. Experiments run in two sizes — Quick (seconds;
// used by tests and benchmarks) and full (used by cmd/rtf-experiments).
package eval

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"rtf/internal/rng"
	"rtf/internal/sim"
	"rtf/internal/stats"
	"rtf/internal/workload"
)

// Config controls experiment scale.
type Config struct {
	Quick bool  // run reduced sizes
	Seed  int64 // base RNG seed; same seed → same tables
}

// Experiment is one reproduction experiment.
type Experiment struct {
	ID    string // e.g. "E1"
	Title string
	Claim string // paper element being validated
	Run   func(w io.Writer, cfg Config) error
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every registered experiment, ordered by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool {
		// E1 < E2 < … < E10 < E11 …: compare numeric suffix.
		return idNum(out[i].ID) < idNum(out[j].ID)
	})
	return out
}

func idNum(id string) int {
	n := 0
	for _, c := range id {
		if c >= '0' && c <= '9' {
			n = n*10 + int(c-'0')
		}
	}
	return n
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// header writes the experiment banner.
func header(w io.Writer, e Experiment, cfg Config) {
	mode := "full"
	if cfg.Quick {
		mode = "quick"
	}
	fmt.Fprintf(w, "\n== %s: %s [%s]\n   claim: %s\n", e.ID, e.Title, mode, e.Claim)
}

// table returns a tabwriter for aligned output.
func table(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// trialErrors runs a system on fresh workloads and collects error metrics.
type trialErrors struct {
	MaxErr, MAE, RMSE []float64
}

func runTrials(sys sim.System, gen workload.Generator, trials int, g *rng.RNG) (trialErrors, error) {
	var te trialErrors
	for i := 0; i < trials; i++ {
		w, err := gen.Generate(g.Split())
		if err != nil {
			return te, err
		}
		est, err := sys.Run(w, g.Split())
		if err != nil {
			return te, err
		}
		truth := w.Truth()
		te.MaxErr = append(te.MaxErr, stats.MaxAbsError(est, truth))
		te.MAE = append(te.MAE, stats.MAE(est, truth))
		te.RMSE = append(te.RMSE, stats.RMSE(est, truth))
	}
	return te, nil
}

// meanSE formats mean ± standard error.
func meanSE(xs []float64) string {
	return fmt.Sprintf("%.0f±%.0f", stats.Mean(xs), stats.StdErr(xs))
}

// pick returns q if quick, else f.
func pick(cfg Config, q, f int) int {
	if cfg.Quick {
		return q
	}
	return f
}

func pickInts(cfg Config, q, f []int) []int {
	if cfg.Quick {
		return q
	}
	return f
}

func pickFloats(cfg Config, q, f []float64) []float64 {
	if cfg.Quick {
		return q
	}
	return f
}
