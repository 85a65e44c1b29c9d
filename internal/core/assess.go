package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/lossless"
	"repro/internal/nn"
	"repro/internal/prune"
	"repro/internal/tensor"
)

// Point is one assessed (error bound → degradation, size) sample for a
// layer: Δ(ℓ;eb) and σ(ℓ;eb) in the paper's notation.
type Point struct {
	EB          float64
	Degradation float64 // baseline top-1 − reconstructed top-1 (may be < 0)
	DataBytes   int     // SZ-compressed data-array size at this bound
}

// LayerAssessment is Algorithm 1's output for one compressible layer.
type LayerAssessment struct {
	Layer string
	// Kind tags the layer family (fc, conv) and Shape its weight-tensor
	// dimensions ([out, in] for fc, [outC, inC, k, k] for conv).
	Kind  nn.LayerKind
	Shape []int
	// Sparse is the pruned two-array form the data points are measured on.
	Sparse *prune.Sparse
	// IndexBytes is the best-fit losslessly compressed index-array size
	// (constant across error bounds).
	IndexBytes int
	// IndexCompressor is the back-end that produced IndexBytes.
	IndexCompressor lossless.ID
	// Points are the assessed samples, sorted by error bound.
	Points []Point
	// FeasibleLo/FeasibleHi delimit the feasible error-bound range: the
	// first fine-sweep bound and the last bound whose degradation stayed
	// within ϵ*.
	FeasibleLo, FeasibleHi float64
}

// WeightCount returns the number of dense weights (the product of Shape).
func (la *LayerAssessment) WeightCount() int {
	n := 1
	for _, d := range la.Shape {
		n *= d
	}
	return n
}

// Assessment is the full Algorithm 1 output.
type Assessment struct {
	NetName  string
	Baseline nn.Accuracy
	// Split is the layer index where the uncompressed prefix ends (feature
	// cache boundary): the first assessed layer's position in the network.
	Split  int
	Layers []*LayerAssessment
	// Tests counts accuracy evaluations performed (the paper's c·k).
	Tests int
}

// Assess runs Algorithm 1 (error bound assessment) over every selected
// weighted layer of net (cfg.Layers: fc only by default, or all), which
// must already be pruned and mask-retrained. test supplies the
// inference-accuracy measurements. net is only read.
func Assess(net *nn.Network, test *dataset.Set, cfg Config) (*Assessment, error) {
	a, _, err := assess(net, test, cfg)
	return a, err
}

// assessed is one layer under assessment with what its tests need: where it
// sits in the network, what it receives there, and its untouched bias.
type assessed struct {
	*LayerAssessment
	pos   int            // index in net.Layers
	input *tensor.Tensor // [N, ...] activations entering the layer, pruned weights in front of it
	bias  []float32      // the layer's live bias, read-only
}

// testWeights is the weight provider of one accuracy test: every assessed
// layer at its pruned weights, except that layer (when set) reads lw — the
// paper's "exactly one layer reconstructed at a time". pruned is built once
// and shared read-only by every test; layers outside the selection are not
// provided and run on the network's own parameters.
type testWeights struct {
	pruned map[string]nn.LayerWeights
	layer  string
	lw     nn.LayerWeights
}

// LayerWeights implements nn.WeightProvider.
func (t *testWeights) LayerWeights(name string) (nn.LayerWeights, func(), error) {
	if name == t.layer {
		return t.lw, nil, nil
	}
	if lw, ok := t.pruned[name]; ok {
		return lw, nil, nil
	}
	return nn.LayerWeights{}, nil, nn.ErrNotProvided
}

// assess is Assess, also handing back the activations entering the first
// assessed layer (layer Split) so Encode can verify its output without
// re-running the layers in front of it.
func assess(net *nn.Network, test *dataset.Set, cfg Config) (*Assessment, *tensor.Tensor, error) {
	if err := (&cfg).fill(); err != nil {
		return nil, nil, err
	}
	selected := selectLayers(net, cfg.Layers)
	if len(selected) == 0 {
		return nil, nil, fmt.Errorf("core: network %q has no %s layers to compress", net.Name(), cfg.Layers)
	}
	cdc, err := codec.ByID(cfg.Codec)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err) // unreachable: fill() validated it
	}

	a := &Assessment{NetName: net.Name()}
	layers := make([]assessed, len(selected))
	at := make([]int, len(selected))
	pruned := make(map[string]nn.LayerWeights, len(selected))
	for i, cl := range selected {
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
		at[i] = net.LayerIndex(cl.Name())
		layers[i] = assessed{LayerAssessment: la, pos: at[i], bias: cl.BiasParam().W.Data}
		if pruned[la.Layer], err = layers[i].weights(sp.Data); err != nil {
			return nil, nil, err
		}
	}
	a.Split = at[0]

	// The feature cache: one chained forward with the pruned weights records
	// what every assessed layer receives, so a test of layer k runs layers
	// [k, end) only — the layers in front of it are the same in every test.
	// The same pass yields the baseline accuracy.
	inputs, baseline, err := net.LayerInputs(at, test, cfg.TestBatch, &testWeights{pruned: pruned})
	if err != nil {
		return nil, nil, err
	}
	a.Baseline = baseline
	for i := range layers {
		layers[i].input = inputs[i]
	}

	// Layers are assessed concurrently. Workers share the network, the
	// caches and the pruned weights, all read-only; what a test changes —
	// one layer's reconstructed weights — is private to it.
	run := &assessRun{net: net, test: test, pruned: pruned, cdc: cdc, baselineTop1: baseline.Top1, cfg: cfg}
	workers := min(cfg.Workers, len(layers))
	tests := make([]int, len(layers))
	errs := make([]error, len(layers))
	var failed atomic.Bool
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for li := range jobs {
				if failed.Load() {
					continue // handed out while another layer was failing
				}
				tests[li], errs[li] = run.assessLayer(&layers[li])
				if errs[li] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	for li := range layers {
		if failed.Load() {
			break // a layer failed: the sweeps still running finish, no new one starts
		}
		jobs <- li
	}
	close(jobs)
	wg.Wait()
	for li, err := range errs {
		if err != nil {
			return nil, nil, err
		}
		a.Tests += tests[li]
	}
	return a, inputs[0], nil
}

// weights reconstructs the layer from its index array and a data array —
// the pruned one, or one a codec returned — straight into the form the
// forward consumes: CSR below SparseThreshold, dense otherwise, by the walk
// that decodes a stored layer (DecodedLayer.reconstruct).
func (l *assessed) weights(data []float32) (nn.LayerWeights, error) {
	if len(data) != len(l.Sparse.Index) {
		return nn.LayerWeights{}, fmt.Errorf("core: layer %s: %d data values for %d indices", l.Layer, len(data), len(l.Sparse.Index))
	}
	dl := DecodedLayer{Shape: l.Shape}
	if err := dl.reconstruct(&LayerBlob{Name: l.Layer, Shape: l.Shape}, l.Sparse.Index, data, SparseThreshold); err != nil {
		return nn.LayerWeights{}, err
	}
	return nn.LayerWeights{Dense: dl.Weights, Sparse: dl.Sparse, Bias: l.bias}, nil
}

// assessRun is what every accuracy test of one Assess call reads and none
// writes.
type assessRun struct {
	net          *nn.Network
	test         *dataset.Set
	pruned       map[string]nn.LayerWeights // every assessed layer at its pruned weights
	cdc          codec.Codec
	baselineTop1 float64
	cfg          Config
}

// assessLayer implements Algorithm 1's per-layer loop and returns the number
// of accuracy tests performed.
func (r *assessRun) assessLayer(l *assessed) (int, error) {
	la, cfg := l.LayerAssessment, r.cfg
	tests := 0
	seen := map[float64]Point{}
	try := func(eb float64) (Point, error) {
		if p, ok := seen[eb]; ok {
			return p, nil
		}
		p, err := r.measure(l, eb)
		if err != nil {
			return Point{}, fmt.Errorf("core: assessing %s at eb %g: %w", la.Layer, eb, err)
		}
		seen[eb] = p
		tests++
		return p, nil
	}

	// A codec without error control (deepcomp) produces the same blob and
	// degradation at every grid point: one measurement describes the whole
	// sweep, so skip it rather than re-clustering and re-evaluating the
	// suffix once per bound.
	if !r.cdc.ErrorBounded() {
		p, err := try(cfg.StartErrorBound)
		if err != nil {
			return tests, err
		}
		la.FeasibleLo, la.FeasibleHi = p.EB, p.EB
		la.Points = []Point{p}
		return tests, nil
	}

	// Coarse sweep (Algorithm 1 lines 13–19): walk decades from the start
	// bound until the distortion criterion (0.1 %) trips, then fine-sweep
	// from a decade below.
	base := cfg.StartErrorBound
	tripped := false
	for beta := cfg.StartErrorBound; beta <= cfg.MaxErrorBound*1.0001; beta *= 10 {
		p, err := try(beta)
		if err != nil {
			return tests, err
		}
		if p.Degradation > cfg.DistortionCriterion {
			base = beta / 10
			tripped = true
			break
		}
	}
	if !tripped {
		// Accuracy never distorted up to the cap: the whole decade below
		// the cap is feasible.
		base = cfg.MaxErrorBound / 10
	}

	// Fine sweep (Check, lines 1–10): step by `base`, promoting the step a
	// decade whenever the bound reaches ten steps, until degradation
	// exceeds ϵ* or the cap is hit.
	la.FeasibleLo = base
	eb := base
	for {
		p, err := try(eb)
		if err != nil {
			return tests, err
		}
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
	return tests, nil
}

// measure is one accuracy test: compress the layer's data array at eb,
// decompress it, reconstruct the layer's weights from (index, decompressed
// data), and evaluate layers [l.pos, end) on the cached input through the
// serving forward — this layer at the reconstructed weights, every other
// assessed layer at its shared pruned ones. Nothing outside the call is
// written.
func (r *assessRun) measure(l *assessed, eb float64) (Point, error) {
	blob, err := r.cdc.Compress(l.Sparse.Data, r.cfg.codecOptions(eb))
	if err != nil {
		return Point{}, fmt.Errorf("compress: %w", err)
	}
	dec, err := r.cdc.Decompress(blob)
	if err != nil {
		return Point{}, fmt.Errorf("decompress: %w", err)
	}
	lw, err := l.weights(dec)
	if err != nil {
		return Point{}, err
	}
	acc, err := r.net.EvaluateFromWith(l.pos, l.input, r.test, r.cfg.TestBatch,
		&testWeights{pruned: r.pruned, layer: l.Layer, lw: lw})
	if err != nil {
		return Point{}, err
	}
	return Point{EB: eb, Degradation: r.baselineTop1 - acc.Top1, DataBytes: len(blob)}, nil
}
