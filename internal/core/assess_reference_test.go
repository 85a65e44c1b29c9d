package core

import (
	"fmt"
	"sort"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/lossless"
	"repro/internal/nn"
	"repro/internal/prune"
	"repro/internal/tensor"
)

// This file keeps the assessment as it ran before its test loop moved onto
// the serving forward, as the reference TestAssessMatchesReference holds the
// new one to: one feature cache at the first assessed layer, a private
// clone of the suffix, and per test prune.Sparse.Decode → SetWeights → a
// dense EvaluateFrom over the whole suffix → restore. It is serial (the
// result never depended on Workers) and panics where the old one did.

// referenceAssess is Assess as it was.
func referenceAssess(net *nn.Network, test *dataset.Set, cfg Config) (*Assessment, error) {
	if err := (&cfg).fill(); err != nil {
		return nil, err
	}
	selected := selectLayers(net, cfg.Layers)
	if len(selected) == 0 {
		return nil, fmt.Errorf("core: network %q has no %s layers to compress", net.Name(), cfg.Layers)
	}
	split := net.LayerIndex(selected[0].Name())
	features := net.FeatureCache(split, test, cfg.TestBatch)
	baseline := net.EvaluateFrom(split, features, test, cfg.TestBatch)

	a := &Assessment{NetName: net.Name(), Baseline: baseline, Split: split}
	suffix := net.CloneRange(split, len(net.Layers))
	for _, cl := range selected {
		sp := prune.Encode(cl.Weights())
		comp, blob := lossless.Best(sp.Index)
		la := &LayerAssessment{
			Layer:           cl.Name(),
			Kind:            cl.Kind(),
			Shape:           append([]int(nil), cl.WeightShape()...),
			Sparse:          sp,
			IndexBytes:      len(blob),
			IndexCompressor: comp.ID(),
		}
		a.Layers = append(a.Layers, la)
		a.Tests += referenceAssessLayer(suffix, features, test, la, baseline.Top1, cfg)
	}
	return a, nil
}

// referenceAssessLayer is Algorithm 1's per-layer loop as it was: the same
// sweep as assessRun.assessLayer, over referenceMeasure.
func referenceAssessLayer(suffix *nn.Network, features *tensor.Tensor, test *dataset.Set,
	la *LayerAssessment, baselineTop1 float64, cfg Config) int {

	cl := suffix.CompressibleByName(la.Layer)
	original := append([]float32(nil), cl.Weights()...)
	defer cl.SetWeights(original)

	tests := 0
	seen := map[float64]Point{}
	try := func(eb float64) Point {
		if p, ok := seen[eb]; ok {
			return p
		}
		p := referenceMeasure(suffix, features, test, cl, la.Sparse, eb, baselineTop1, cfg)
		cl.SetWeights(original)
		seen[eb] = p
		tests++
		return p
	}

	if cdc, err := codec.ByID(cfg.Codec); err == nil && !cdc.ErrorBounded() {
		p := try(cfg.StartErrorBound)
		la.FeasibleLo, la.FeasibleHi = p.EB, p.EB
		la.Points = []Point{p}
		return tests
	}

	base := cfg.StartErrorBound
	tripped := false
	for beta := cfg.StartErrorBound; beta <= cfg.MaxErrorBound*1.0001; beta *= 10 {
		p := try(beta)
		if p.Degradation > cfg.DistortionCriterion {
			base = beta / 10
			tripped = true
			break
		}
	}
	if !tripped {
		base = cfg.MaxErrorBound / 10
	}

	la.FeasibleLo = base
	eb := base
	for {
		p := try(eb)
		if p.Degradation > cfg.ExpectedAccuracyLoss {
			break
		}
		la.FeasibleHi = eb
		next := eb + base
		if next >= 10*base*0.9999 {
			base *= 10
		}
		eb = next
		if eb > cfg.MaxErrorBound*1.0001 {
			break
		}
	}
	if la.FeasibleHi == 0 {
		la.FeasibleHi = la.FeasibleLo
	}

	la.Points = la.Points[:0]
	for _, p := range seen {
		la.Points = append(la.Points, p)
	}
	sort.Slice(la.Points, func(i, j int) bool { return la.Points[i].EB < la.Points[j].EB })
	return tests
}

// referenceMeasure compresses the layer's data array at eb, rebuilds the
// dense tensor, swaps it into the suffix clone and evaluates the whole
// suffix with the dense kernels. The caller restores the weights.
func referenceMeasure(suffix *nn.Network, features *tensor.Tensor, test *dataset.Set,
	cl nn.Compressible, sp *prune.Sparse, eb, baselineTop1 float64, cfg Config) Point {

	cdc, err := codec.ByID(cfg.Codec)
	if err != nil {
		panic(fmt.Sprintf("core: assessment codec missing: %v", err))
	}
	blob, err := cdc.Compress(sp.Data, cfg.codecOptions(eb))
	if err != nil {
		panic(fmt.Sprintf("core: assessment compression failed: %v", err))
	}
	dec, err := cdc.Decompress(blob)
	if err != nil {
		panic(fmt.Sprintf("core: assessment decompression failed: %v", err))
	}
	recon := &prune.Sparse{N: sp.N, Data: dec, Index: sp.Index}
	dense, err := recon.Decode()
	if err != nil {
		panic(fmt.Sprintf("core: sparse reconstruction failed: %v", err))
	}
	cl.SetWeights(dense)
	acc := suffix.EvaluateFrom(0, features, test, cfg.TestBatch)
	return Point{EB: eb, Degradation: baselineTop1 - acc.Top1, DataBytes: len(blob)}
}
