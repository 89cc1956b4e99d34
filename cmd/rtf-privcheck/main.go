// Command rtf-privcheck verifies the privacy guarantees of the
// implementation by exact computation (no sampling): the worst-case
// likelihood ratio of the composed randomizer R̃ (Lemma 5.2) at every k
// in [1..kmax] (by default up to probmath.MaxVerifiedK, the largest k the
// serving fronts accept), the exhaustive end-to-end client check
// (Theorem 4.5) for small d and k, and the same check of the shipped
// domain client under the exact encoding (m = 3) and the loloha encoding
// (m = 6, g = 2). Each client check runs over streams with k, k+1 and
// k+2 changes, the last two through the clip every client applies past
// k.
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
		kmax    = flag.Int("kmax", probmath.MaxVerifiedK, "largest k for the randomizer check (every k from 1)")
		d       = flag.Int("d", 8, "horizon for the exhaustive client check (power of two <= 8)")
		kclient = flag.Int("kclient", 2, "largest k for the exhaustive client check")
	)
	flag.Parse()

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "check\tparams\trealized ε\tbudget ε\tmargin\tok")

	failures := 0
	row := func(check, params string, r privacy.RatioReport, err error) {
		if err != nil {
			fatal(fmt.Errorf("%s %s: %w", check, params, err))
		}
		ok := r.Satisfied()
		if !ok {
			failures++
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6f\t%.3f\t%.2fx\t%v\n",
			check, params, r.EpsRealized, r.EpsBudget, r.EpsBudget/r.EpsRealized, ok)
	}
	for k := 1; k <= *kmax; k++ {
		p, err := probmath.NewFutureRand(k, *eps)
		if err != nil {
			fatal(err)
		}
		row("randomizer R̃", fmt.Sprintf("k=%d", k), privacy.RandomizerRatio(p), nil)
	}
	for k := 1; k <= *kclient; k++ {
		for changes := k; changes <= k+2; changes++ {
			r, err := privacy.ClientRatio(*d, changes, k, *eps)
			row("client Aclt (exhaustive)", fmt.Sprintf("d=%d k=%d changes=%d", *d, k, changes), r, err)
		}
	}
	for _, enc := range []hh.DomainEncoding{hh.ExactEncoding(3), hh.LolohaEncoding(6, 2, 1)} {
		for k := 1; k <= *kclient; k++ {
			for changes := k; changes <= k+2; changes++ {
				r, err := privacy.DomainClientRatio(*d, changes, k, *eps, enc)
				row("domain client (exhaustive)", fmt.Sprintf("d=%d k=%d changes=%d %s m=%d g=%d", *d, k, changes, enc.Name, enc.M, enc.G), r, err)
			}
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
