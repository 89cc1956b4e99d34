// Command rtf-privcheck verifies the privacy guarantees of the
// implementation by exact computation (no sampling): the worst-case
// likelihood ratio of the composed randomizer R̃ (Lemma 5.2) across a
// range of k, the exhaustive end-to-end client check (Theorem 4.5) for
// small d and k, and the same check of the shipped domain client under
// the exact encoding (m = 3) and the loloha encoding (m = 6, g = 2).
//
// Example:
//
//	rtf-privcheck -eps 1.0 -kmax 1024 -d 8 -kclient 3
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"rtf/internal/hh"
	"rtf/internal/privacy"
	"rtf/internal/probmath"
)

func main() {
	var (
		eps     = flag.Float64("eps", 1.0, "privacy budget")
		kmax    = flag.Int("kmax", 1024, "largest k for the randomizer check (powers of two from 1)")
		d       = flag.Int("d", 8, "horizon for the exhaustive client check (power of two <= 8)")
		kclient = flag.Int("kclient", 2, "largest k for the exhaustive client check")
	)
	flag.Parse()

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "check\tparams\trealized ε\tbudget ε\tmargin\tok")

	failures := 0
	for k := 1; k <= *kmax; k *= 2 {
		p, err := probmath.NewFutureRand(k, *eps)
		if err != nil {
			fatal(err)
		}
		r := privacy.RandomizerRatio(p)
		ok := r.Satisfied()
		if !ok {
			failures++
		}
		fmt.Fprintf(tw, "randomizer R̃\tk=%d\t%.6f\t%.3f\t%.2fx\t%v\n",
			k, r.EpsRealized, r.EpsBudget, r.EpsBudget/r.EpsRealized, ok)
	}
	for k := 1; k <= *kclient; k++ {
		r, err := privacy.ClientRatio(*d, k, *eps)
		if err != nil {
			fatal(err)
		}
		ok := r.Satisfied()
		if !ok {
			failures++
		}
		fmt.Fprintf(tw, "client Aclt (exhaustive)\td=%d k=%d\t%.6f\t%.3f\t%.2fx\t%v\n",
			*d, k, r.EpsRealized, r.EpsBudget, r.EpsBudget/r.EpsRealized, ok)
	}
	for _, enc := range []hh.DomainEncoding{hh.ExactEncoding(3), hh.LolohaEncoding(6, 2, 1)} {
		for k := 1; k <= *kclient; k++ {
			r, err := privacy.DomainClientRatio(*d, k, *eps, enc)
			if err != nil {
				fatal(err)
			}
			ok := r.Satisfied()
			if !ok {
				failures++
			}
			fmt.Fprintf(tw, "domain client (exhaustive)\td=%d k=%d %s m=%d g=%d\t%.6f\t%.3f\t%.2fx\t%v\n",
				*d, k, enc.Name, enc.M, enc.G, r.EpsRealized, r.EpsBudget, r.EpsBudget/r.EpsRealized, ok)
		}
	}
	tw.Flush()
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "rtf-privcheck: %d checks FAILED\n", failures)
		os.Exit(1)
	}
	fmt.Println("all privacy checks passed")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rtf-privcheck:", err)
	os.Exit(1)
}
