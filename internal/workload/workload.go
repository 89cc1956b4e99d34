// Package workload generates and manipulates longitudinal Boolean data:
// n user streams over d time periods, each changing value at most k times
// (the problem of Section 2 of the paper). Streams are stored as change
// lists — the times at which the user's value flips, starting from the
// implicit st[0] = 0 — so a million-user workload fits in memory and the
// ground truth a[t] is computable in O(changes + d).
//
// The generators model the motivating scenarios from the paper's
// introduction: slowly-drifting preferences, bursty events, periodic
// habits, Zipf-distributed activity levels, and adversarial synchronized
// flips.
package workload

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"rtf/internal/dyadic"
)

// UserStream is one user's Boolean value sequence, encoded as the sorted
// times (1-based, in [1..d]) at which the value flips. The value starts
// at 0 before time 1, matching Definition 3.1's st[0] = 0 convention, so
// the number of changes equals ‖X_u‖₀ exactly.
type UserStream struct {
	ChangeTimes []int
}

// NumChanges returns ‖X_u‖₀.
func (u UserStream) NumChanges() int { return len(u.ChangeTimes) }

// ValueAt returns st_u[t] ∈ {0,1}: the parity of the number of changes at
// or before t. Time t is 1-based.
func (u UserStream) ValueAt(t int) uint8 {
	// Change lists are short (≤ k); linear scan beats binary search for
	// the sizes used here and is branch-predictable.
	c := 0
	for _, ct := range u.ChangeTimes {
		if ct > t {
			break
		}
		c++
	}
	return uint8(c & 1)
}

// Values materializes the full stream st_u[1..d] as a 0/1 slice.
func (u UserStream) Values(d int) []uint8 {
	out := make([]uint8, d)
	v := uint8(0)
	i := 0
	for t := 1; t <= d; t++ {
		for i < len(u.ChangeTimes) && u.ChangeTimes[i] == t {
			v ^= 1
			i++
		}
		out[t-1] = v
	}
	return out
}

// Workload is a complete synthetic dataset: N user streams over horizon D
// with at most K changes each.
type Workload struct {
	N, D, K int
	Users   []UserStream
}

// Validate checks structural invariants: D a power of two, every change
// list sorted, strictly increasing, within [1..D] and of length ≤ K.
func (w *Workload) Validate() error {
	if !dyadic.IsPow2(w.D) {
		return fmt.Errorf("workload: d=%d is not a power of two", w.D)
	}
	if len(w.Users) != w.N {
		return fmt.Errorf("workload: %d users, header says %d", len(w.Users), w.N)
	}
	if w.K < 0 {
		return errors.New("workload: negative k")
	}
	for u, us := range w.Users {
		if len(us.ChangeTimes) > w.K {
			return fmt.Errorf("workload: user %d has %d changes > k=%d", u, len(us.ChangeTimes), w.K)
		}
		prev := 0
		for _, t := range us.ChangeTimes {
			if t <= prev || t > w.D {
				return fmt.Errorf("workload: user %d has invalid change time %d", u, t)
			}
			prev = t
		}
	}
	return nil
}

// Truth returns the ground truth a[t] = Σ_u st_u[t] for t = 1..D
// (Equation 1), via a difference array over change times.
func (w *Workload) Truth() []int {
	diff := make([]int, w.D+1)
	for _, us := range w.Users {
		v := 0
		for _, t := range us.ChangeTimes {
			if v == 0 {
				diff[t-1]++ // flips 0→1 at t
				v = 1
			} else {
				diff[t-1]--
				v = 0
			}
		}
	}
	out := make([]int, w.D)
	run := 0
	for t := 0; t < w.D; t++ {
		run += diff[t]
		out[t] = run
	}
	return out
}

// MaxChanges returns the largest change count over all users. Public API
// through the rtf/workload.Workload alias.
func (w *Workload) MaxChanges() int {
	m := 0
	for _, us := range w.Users {
		if c := us.NumChanges(); c > m {
			m = c
		}
	}
	return m
}

// TotalChanges returns Σ_u ‖X_u‖₀. Public API through the
// rtf/workload.Workload alias.
func (w *Workload) TotalChanges() int {
	s := 0
	for _, us := range w.Users {
		s += us.NumChanges()
	}
	return s
}

// WriteCSV serializes the workload: a header line "n,d,k" followed by one
// line per user listing space-separated change times (possibly empty).
func (w *Workload) WriteCSV(out io.Writer) error {
	bw := bufio.NewWriter(out)
	if _, err := fmt.Fprintf(bw, "%d,%d,%d\n", w.N, w.D, w.K); err != nil {
		return err
	}
	for _, us := range w.Users {
		for i, t := range us.ChangeTimes {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.Itoa(t)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses the WriteCSV format and validates the result.
func ReadCSV(in io.Reader) (*Workload, error) {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	if !sc.Scan() {
		return nil, errors.New("workload: empty input")
	}
	var n, d, k int
	if _, err := fmt.Sscanf(strings.TrimSpace(sc.Text()), "%d,%d,%d", &n, &d, &k); err != nil {
		return nil, fmt.Errorf("workload: bad header %q: %w", sc.Text(), err)
	}
	w := &Workload{N: n, D: d, K: k, Users: make([]UserStream, 0, n)}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		var us UserStream
		if line != "" {
			fields := strings.Fields(line)
			us.ChangeTimes = make([]int, len(fields))
			for i, f := range fields {
				t, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("workload: user %d: bad change time %q", len(w.Users), f)
				}
				us.ChangeTimes[i] = t
			}
		}
		w.Users = append(w.Users, us)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}
