package main

import (
	"fmt"
	"math"
	"os"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// The correctness half of the benchmark. Two contracts are checked on every
// run, so a speed-up that breaks either one fails instead of looking like a
// win:
//
//   - serving: every 200 is bit-for-bit the in-process reference forward
//     (core.ReadModel → Model.Apply on models.Build → Forward);
//   - compression: SZ's pointwise bound |w − ŵ| ≤ eb holds on every weight
//     of every compressed layer, pruned zeros included, and top-1 accuracy
//     drops by at most maxAccuracyLossPP. Pruned zeros that come back
//     non-zero (within the bound) are counted and reported, not failed: the
//     seed commit has some — see disturbedZeros.

// maxAccuracyLossPP is the hard ceiling on top-1(pruned) − top-1(decoded),
// in percentage points (the CLI's default budget is -loss 0.02).
const maxAccuracyLossPP = 2.0

// boundSlack is the float rounding allowance on the error bound, the same
// one internal/sz's own tests use (eb·1.0001 + 1e-7).
func boundSlack(eb float64) float64 { return eb*1.0001 + 1e-7 }

// loadNet builds a zoo net the way deepszd does (init seed 42) and loads a
// weights file into it.
func loadNet(name, weightsPath string) (*nn.Network, error) {
	net, err := models.Build(name, tensor.NewRNG(42))
	if err != nil {
		return nil, err
	}
	f, err := os.Open(weightsPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := nn.LoadWeights(f, net); err != nil {
		return nil, fmt.Errorf("loading %s: %w", weightsPath, err)
	}
	return net, nil
}

// referenceNet is the network a correct replica must agree with: the pruned
// weights with the .dsz's decoded layers applied on top.
func referenceNet(name, prunedPath, dszPath string) (*nn.Network, error) {
	net, err := loadNet(name, prunedPath)
	if err != nil {
		return nil, err
	}
	m, err := core.ReadModel(dszPath)
	if err != nil {
		return nil, err
	}
	if _, err := m.Apply(net); err != nil {
		return nil, err
	}
	return net, nil
}

// top1 evaluates net on the fixed test set of its zoo entry.
func top1(net *nn.Network, name string) (float64, error) {
	_, test, err := models.DataFor(name, 10, evalSamples)
	if err != nil {
		return 0, err
	}
	return net.Evaluate(test, 100).Top1, nil
}

// sameBits reports whether a served answer equals the reference exactly:
// same shape, same float32 bit patterns.
func sameBits(got [][]float32, want []float32) bool {
	if len(got) == 0 || len(want)%len(got) != 0 {
		return false
	}
	cols := len(want) / len(got)
	for i, row := range got {
		if len(row) != cols {
			return false
		}
		for j, v := range row {
			if math.Float32bits(v) != math.Float32bits(want[i*cols+j]) {
				return false
			}
		}
	}
	return true
}

// boundReport is what comparing a decoded weight array with its original
// found.
type boundReport struct {
	MaxErrOverEB float64 // max |w − ŵ| ÷ eb
	OverBound    int     // weights beyond the bound (with float slack)
	// DisturbedZeros counts pruned zeros that decoded to a non-zero value.
	// The two-array format marks a gap longer than 255 with a padding pair
	// (index 255, data 0); the padding's data value goes through the lossy
	// codec with the real weights and can come back as a small non-zero,
	// which the decoder then writes at the padding position. At the seed
	// commit vgg16-s fc6 (3 % density) has two. They stay within eb, so
	// they are reported (core.zeros_disturbed), not failed.
	DisturbedZeros int
}

// checkBound compares a decoded array with the original it was compressed
// from under absolute error bound eb.
func checkBound(orig, dec []float32, eb float64) (boundReport, error) {
	var r boundReport
	if len(orig) != len(dec) {
		return r, fmt.Errorf("decoded %d weights, want %d", len(dec), len(orig))
	}
	slack := boundSlack(eb)
	for i, w := range orig {
		if w == 0 && dec[i] != 0 {
			r.DisturbedZeros++
		}
		d := math.Abs(float64(w) - float64(dec[i]))
		if d > slack {
			r.OverBound++
		}
		if ratio := d / eb; ratio > r.MaxErrOverEB {
			r.MaxErrOverEB = ratio
		}
	}
	return r, nil
}

func (r boundReport) err(layer string) error {
	if r.OverBound > 0 {
		return fmt.Errorf("layer %s: %d weights beyond the error bound (max |w-ŵ|/eb = %.4f)", layer, r.OverBound, r.MaxErrOverEB)
	}
	return nil
}

// merge folds another layer's findings into r.
func (r *boundReport) merge(o boundReport) {
	r.MaxErrOverEB = math.Max(r.MaxErrOverEB, o.MaxErrOverEB)
	r.OverBound += o.OverBound
	r.DisturbedZeros += o.DisturbedZeros
}

// checkDecodedNet verifies every layer the model covers: decoded (what
// `deepsz decode` wrote) against pruned (what `deepsz encode` read), under
// the layer's own error bound. Layers of a codec without error control
// (deepcomp) have no bound to hold them to; only their zeros are counted.
func checkDecodedNet(pruned, decoded *nn.Network, m *core.Model) (boundReport, error) {
	var total boundReport
	for i := range m.Layers {
		l := &m.Layers[i]
		p, d := pruned.CompressibleByName(l.Name), decoded.CompressibleByName(l.Name)
		if p == nil || d == nil {
			return total, fmt.Errorf("layer %s: not in network %s", l.Name, pruned.Name())
		}
		eb := l.EB
		if cdc, err := codec.ByID(l.Codec); err != nil || !cdc.ErrorBounded() {
			eb = math.Inf(1)
		}
		r, err := checkBound(p.Weights(), d.Weights(), eb)
		if err != nil {
			return total, fmt.Errorf("layer %s: %w", l.Name, err)
		}
		total.merge(r)
		if err := r.err(l.Name); err != nil {
			return total, err
		}
	}
	return total, nil
}
