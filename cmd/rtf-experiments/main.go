// Command rtf-experiments regenerates the reproduction experiments (the
// paper's theorems, lemmas and comparisons), one per row of the table in
// README.md, "Reproduction experiments"; -list prints them.
//
// Examples:
//
//	rtf-experiments                 # all experiments, full scale
//	rtf-experiments -quick          # all experiments, reduced scale
//	rtf-experiments -exp E1,E5,E6   # a subset
//
// Stdout (and -out) holds only the tables, a function of -quick and
// -seed, so two runs can be diffed directly; the timing lines go to
// stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"rtf/internal/eval"
)

func main() {
	var (
		exps  = flag.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		quick = flag.Bool("quick", false, "reduced sizes (seconds instead of minutes)")
		seed  = flag.Int64("seed", 42, "base random seed")
		out   = flag.String("out", "", "also write output to this file")
		list  = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range eval.All() {
			fmt.Printf("%-4s %s\n     %s\n", e.ID, e.Title, e.Claim)
		}
		return
	}

	var selected []eval.Experiment
	if *exps == "all" {
		selected = eval.All()
	} else {
		for _, id := range strings.Split(*exps, ",") {
			e, ok := eval.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "rtf-experiments: unknown experiment %q\n", id)
				os.Exit(1)
			}
			selected = append(selected, e)
		}
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rtf-experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	cfg := eval.Config{Quick: *quick, Seed: *seed}
	start := time.Now()
	for _, e := range selected {
		t0 := time.Now()
		if err := e.Run(w, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "rtf-experiments: %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "   [%s completed in %v]\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Fprintf(os.Stderr, "all %d experiments completed in %v\n", len(selected), time.Since(start).Round(time.Millisecond))
}
