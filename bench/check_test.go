package main

import (
	"math"
	"strings"
	"testing"
)

// The checker is the benchmark's licence to report a speed at all: these
// tests damage a correct answer by the smallest possible amount and demand
// that it notices.

func TestSameBitsDetectsOneFlippedBit(t *testing.T) {
	want := []float32{0.25, -1.5, 3, 0, 7.125, -0.0625}
	served := func() [][]float32 {
		return [][]float32{{0.25, -1.5, 3}, {0, 7.125, -0.0625}}
	}
	if !sameBits(served(), want) {
		t.Fatal("identical answer reported as different")
	}
	for i := 0; i < len(want); i++ {
		got := served()
		row, col := i/3, i%3
		got[row][col] = math.Float32frombits(math.Float32bits(got[row][col]) ^ 1) // lowest mantissa bit
		if sameBits(got, want) {
			t.Errorf("flipping the lowest bit of output %d went unnoticed", i)
		}
	}
	// -0 and +0 compare equal as floats but are different answers.
	got := served()
	got[1][0] = float32(math.Copysign(0, -1))
	if sameBits(got, want) {
		t.Error("-0 accepted for +0")
	}
	// Shape changes are wrong answers too.
	if sameBits([][]float32{{0.25, -1.5, 3, 0, 7.125, -0.0625}}, want[:5]) {
		t.Error("ragged answer accepted")
	}
	if sameBits(served()[:1], want) {
		t.Error("answer with a missing row accepted")
	}
	if sameBits(nil, want) {
		t.Error("empty answer accepted")
	}
}

func TestCheckBoundDetectsOneWeightBeyondEB(t *testing.T) {
	const eb = 1e-2
	orig := []float32{0.5, 0, -0.25, 0.125, 0, 0.75}
	within := []float32{0.5 + 0.009, 0, -0.25 - 0.0099, 0.125, 0, 0.75 - 0.005}
	rep, err := checkBound(orig, within, eb)
	if err != nil || rep.err("fc") != nil {
		t.Fatalf("decode within the bound rejected: %v %v", err, rep.err("fc"))
	}
	if rep.MaxErrOverEB <= 0.98 || rep.MaxErrOverEB > 1 {
		t.Errorf("max |w-ŵ|/eb = %v, want just under 1", rep.MaxErrOverEB)
	}
	if rep.DisturbedZeros != 0 {
		t.Errorf("%d disturbed zeros in a clean decode", rep.DisturbedZeros)
	}

	for i := range orig {
		bad := append([]float32(nil), within...)
		bad[i] = orig[i] + 1.5*eb
		rep, err := checkBound(orig, bad, eb)
		if err != nil {
			t.Fatal(err)
		}
		if rep.OverBound != 1 || rep.err("fc") == nil {
			t.Errorf("weight %d pushed to 1.5 eb: OverBound = %d, err = %v", i, rep.OverBound, rep.err("fc"))
		} else if !strings.Contains(rep.err("fc").Error(), "fc") {
			t.Errorf("error does not name the layer: %v", rep.err("fc"))
		}
	}

	// A pruned zero that comes back non-zero inside the bound is counted,
	// not failed; beyond the bound it fails like any weight.
	disturbed := append([]float32(nil), within...)
	disturbed[1] = 0.004
	rep, _ = checkBound(orig, disturbed, eb)
	if rep.DisturbedZeros != 1 || rep.err("fc") != nil {
		t.Errorf("disturbed zero within eb: count %d, err %v", rep.DisturbedZeros, rep.err("fc"))
	}
	disturbed[1] = 0.02
	rep, _ = checkBound(orig, disturbed, eb)
	if rep.err("fc") == nil {
		t.Error("zero decoded to 2 eb accepted")
	}

	if _, err := checkBound(orig, within[:5], eb); err == nil {
		t.Error("short decode accepted")
	}
}

func TestPaperFCShape(t *testing.T) {
	skipUnlessSmoke(t) // builds the 38 MB stack three times
	net := newPaperFC(3)
	for _, l := range paperFCLayers {
		w := net.CompressibleByName(l.name).Weights()
		if len(w) != l.in*l.out {
			t.Fatalf("%s has %d weights, want %d", l.name, len(w), l.in*l.out)
		}
		nz := 0
		for _, v := range w {
			if v != 0 {
				nz++
			}
		}
		if d := float64(nz) / float64(len(w)); math.Abs(d-l.density) > 0.01 {
			t.Errorf("%s density %.4f, want %.2f", l.name, d, l.density)
		}
	}
	// Same seed, same weights; another seed, other weights.
	a, b, c := newPaperFC(3), newPaperFC(3), newPaperFC(4)
	wa, wb, wc := a.CompressibleByName("fc8").Weights(), b.CompressibleByName("fc8").Weights(), c.CompressibleByName("fc8").Weights()
	same, differ := true, false
	for i := range wa {
		same = same && wa[i] == wb[i]
		differ = differ || wa[i] != wc[i]
	}
	if !same || !differ {
		t.Errorf("paper_fc seeding: same seed equal = %v, other seed differs = %v", same, differ)
	}
}
