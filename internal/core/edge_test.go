package core

import (
	"testing"
	"testing/quick"

	"rtf/internal/bitvec"
	"rtf/internal/probmath"
	"rtf/internal/rng"
)

func TestSampleQuickInvariants(t *testing.T) {
	g := rng.New(201, 202)
	f := func(kRaw uint8, epsRaw uint16, seed uint32) bool {
		k := int(kRaw%32) + 1
		eps := (float64(epsRaw%1000) + 1) / 1000
		p, err := probmath.NewFutureRand(k, eps)
		if err != nil {
			return false
		}
		c := NewComposed(p.Annulus)
		b := bitvec.Uniform(g, k)
		out := c.Sample(g, b)
		if out.Len() != k {
			return false
		}
		d := out.Hamming(b)
		return d >= 0 && d <= k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSampleInputUnmodified(t *testing.T) {
	g := rng.New(203, 204)
	p, err := probmath.NewFutureRand(16, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	c := NewComposed(p.Annulus)
	b := bitvec.Uniform(g, 16)
	snapshot := b.String()
	for i := 0; i < 200; i++ {
		c.Sample(g, b)
		c.SampleComplement(g, b)
	}
	if b.String() != snapshot {
		t.Error("Sample mutated its input")
	}
}

func TestShortSequenceLessThanK(t *testing.T) {
	// L < k is legal (small d with high sparsity bound): at most L values
	// arrive, at most L of them non-zero.
	f, err := NewFutureRandFactory(2, 8, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	g := rng.New(205, 206)
	for i := 0; i < 100; i++ {
		m := f.NewInstance(g)
		a := m.Perturb(1)
		b := m.Perturb(-1)
		if a != 1 && a != -1 || b != 1 && b != -1 {
			t.Fatal("invalid outputs")
		}
	}
}

func TestBunFullCoverAnnulusDegenerates(t *testing.T) {
	// For small k the Bun annulus covers all of [0..k]; the sampler must
	// never attempt complement sampling and behave as independent flips.
	p, err := probmath.NewBun(4, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if !p.ComplementEmpty() {
		t.Skip("annulus no longer covers the cube at k=4")
	}
	f, err := NewBunFactory(8, 4, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	g := rng.New(207, 208)
	for i := 0; i < 2000; i++ {
		m := f.NewInstance(g)
		for j := 0; j < 4; j++ {
			if o := m.Perturb(1); o != 1 && o != -1 {
				t.Fatal("invalid output")
			}
		}
	}
}

func TestFromParamsConstructor(t *testing.T) {
	p, err := probmath.NewFutureRand(4, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFactoryFromParams(16, p, "shared")
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "shared" || f.L() != 16 || f.K() != 4 {
		t.Error("metadata wrong")
	}
	if f.CGap() != p.CGap {
		t.Error("c_gap not shared")
	}
	if _, err := NewFactoryFromParams(0, p, "x"); err == nil {
		t.Error("L=0 accepted")
	}
	if _, err := NewFactoryFromParams(4, nil, "x"); err == nil {
		t.Error("nil params accepted")
	}
}

func TestManyInstancesShareFactoryState(t *testing.T) {
	// Instances must be independent: interleaving two users' Perturb
	// calls must not cross-contaminate nnz counters.
	f, err := NewFutureRandFactory(4, 2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	g := rng.New(209, 210)
	a := f.NewInstance(g)
	b := f.NewInstance(g)
	// Interleave: each instance gets exactly 2 non-zeros (its own budget).
	a.Perturb(1)
	b.Perturb(1)
	a.Perturb(-1)
	b.Perturb(-1)
	a.Perturb(0)
	b.Perturb(0)
	// Both used their full budget without panic; a third non-zero on
	// either must panic.
	defer func() {
		if recover() == nil {
			t.Error("budget not enforced per instance")
		}
	}()
	a.Perturb(1)
}
