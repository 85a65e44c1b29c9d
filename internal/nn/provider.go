package nn

import (
	"errors"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/tensor"
)

// This file adds the provider-driven forward pass the serving subsystem
// builds on: instead of every weighted layer owning its dense weight
// tensor, the weights are fetched on demand from a WeightProvider (in
// production a layer-granular decode cache over a compressed model) and
// released as soon as the layer's kernel finishes. Peak extra memory for
// the compressed layers is then governed by the provider's budget, not by
// the network. A provider may hand back the weights dense or in CSR form;
// sparse layers then skip the dense kernels' zero multiplies entirely
// while producing bit-identical outputs.

// ErrNotProvided is returned by a WeightProvider that does not supply the
// requested layer; ForwardWithProvider falls back to the layer's own
// parameters in that case.
var ErrNotProvided = errors.New("nn: layer weights not provided")

// LayerWeights is one layer's externally supplied parameters: exactly one
// of Dense (flat row-major out×in for fc, [outC·inC·k·k] for conv) or
// Sparse (the same matrix in CSR form, rows = out, cols = the flattened
// rest) is set. Bias may be nil, meaning zero bias.
type LayerWeights struct {
	Dense  []float32
	Sparse *tensor.CSR
	Bias   []float32
}

// WeightProvider supplies materialised layer weights on demand.
// Implementations must be safe for concurrent use; the returned slices
// and CSR are read-only for the caller and remain valid until release is
// called.
type WeightProvider interface {
	// LayerWeights returns the named layer's weights in dense or CSR form.
	// release (which may be nil) must be invoked once the caller is done
	// reading them.
	LayerWeights(name string) (w LayerWeights, release func(), err error)
}

// ForwardWith computes the layer output using externally supplied weights
// and bias instead of d.W/d.B, touching no layer state — unlike Forward it
// is safe to call concurrently on a shared *Dense. weights must have
// Out×In entries; bias Out entries (nil means zero bias).
func (d *Dense) ForwardWith(x *tensor.Tensor, weights, bias []float32) *tensor.Tensor {
	y := tensor.New(x.Shape[0], d.Out)
	d.forwardInto(y.Data, x, weights, bias, false)
	return y
}

// forwardInto runs the fc kernel with bias (and optionally the following
// ReLU) fused into the matmul epilogue, writing into a caller-owned
// buffer. The fused epilogue applies (Σ terms) + bias then the clamp —
// exactly what the former separate addBias loop and ReLU layer computed.
func (d *Dense) forwardInto(out []float32, x *tensor.Tensor, weights, bias []float32, relu bool) {
	if x.Rank() != 2 || x.Shape[1] != d.In {
		panic(fmt.Sprintf("nn: %s: input shape %v, want [N, %d]", d.LayerName, x.Shape, d.In))
	}
	if len(weights) != d.Out*d.In {
		panic(fmt.Sprintf("nn: %s: ForwardWith got %d weights, want %d", d.LayerName, len(weights), d.Out*d.In))
	}
	if bias != nil && len(bias) != d.Out {
		panic(fmt.Sprintf("nn: %s: got %d biases, want %d", d.LayerName, len(bias), d.Out))
	}
	ep := tensor.Epilogue{Bias: bias, ReLU: relu}
	tensor.MatMulTransBInto(out, x, tensor.FromSlice(weights, d.Out, d.In), ep)
}

// ForwardSparse is ForwardWith for CSR weights (shape Out×In): the fc
// matmul runs over the stored nonzeros only, producing bit-identical
// output to the dense path for finite inputs. Safe to call concurrently
// on a shared *Dense.
func (d *Dense) ForwardSparse(x *tensor.Tensor, w *tensor.CSR, bias []float32) *tensor.Tensor {
	y := tensor.New(x.Shape[0], d.Out)
	d.forwardSparseInto(y.Data, x, w, bias, false)
	return y
}

// forwardSparseInto is forwardInto over CSR weights.
func (d *Dense) forwardSparseInto(out []float32, x *tensor.Tensor, w *tensor.CSR, bias []float32, relu bool) {
	if x.Rank() != 2 || x.Shape[1] != d.In {
		panic(fmt.Sprintf("nn: %s: input shape %v, want [N, %d]", d.LayerName, x.Shape, d.In))
	}
	if w.Rows != d.Out || w.Cols != d.In {
		panic(fmt.Sprintf("nn: %s: ForwardSparse got %dx%d weights, want %dx%d", d.LayerName, w.Rows, w.Cols, d.Out, d.In))
	}
	if bias != nil && len(bias) != d.Out {
		panic(fmt.Sprintf("nn: %s: got %d biases, want %d", d.LayerName, len(bias), d.Out))
	}
	ep := tensor.Epilogue{Bias: bias, ReLU: relu}
	tensor.MatMulTransBCSRInto(out, x, w, ep)
}

// ForwardInference implements Compressible: the fc serving path with the
// bias (and, when fuseReLU is set, the following ReLU) fused into the
// matmul epilogue, returning a pooled output the caller recycles.
func (d *Dense) ForwardInference(x *tensor.Tensor, lw LayerWeights, fuseReLU bool) *tensor.Tensor {
	y := tensor.NewPooled(x.Shape[0], d.Out)
	if lw.Sparse != nil {
		d.forwardSparseInto(y.Data, x, lw.Sparse, lw.Bias, fuseReLU)
	} else {
		d.forwardInto(y.Data, x, lw.Dense, lw.Bias, fuseReLU)
	}
	return y
}

// ForwardWithProvider runs an inference-mode forward pass, sourcing every
// compressible (fc and conv) layer's weights from p — dispatching to the
// sparse kernel when the provider hands back CSR weights. Layers for
// which p reports ErrNotProvided fall back to their own parameters. An
// inference-mode Forward writes no layer state, so the network, the
// provider and the supplied weights may all be shared across concurrent
// calls as long as nothing trains or re-weights the network meanwhile.
//
// Two serving optimisations ride on this loop, neither visible in the
// output bits: a ReLU layer directly after a provided compressible layer
// is fused into that layer's kernel epilogue (the ReLU layer itself is
// skipped), and compressible outputs come from the tensor buffer pool —
// each pooled intermediate is recycled as soon as the next layer has
// produced an output that doesn't share its storage, so steady-state
// serving reuses the same buffers request after request instead of
// allocating per layer. The returned tensor may be pool-backed but is
// never recycled here; ownership passes to the caller.
func (n *Network) ForwardWithProvider(x *tensor.Tensor, p WeightProvider) (*tensor.Tensor, error) {
	return n.ForwardRangeWithProvider(0, len(n.Layers), x, p)
}

// ForwardRangeWithProvider is ForwardWithProvider over layers [from, to):
// x is the input of layer from, the result the input of layer to. A ReLU
// is fused only when it lies inside the range. With from == to the result
// is x itself.
func (n *Network) ForwardRangeWithProvider(from, to int, x *tensor.Tensor, p WeightProvider) (*tensor.Tensor, error) {
	if from < 0 || to > len(n.Layers) || from > to {
		panic(fmt.Sprintf("nn: ForwardRangeWithProvider [%d,%d) of %d layers", from, to, len(n.Layers)))
	}
	var pooled *tensor.Tensor // last pooled intermediate not yet recycled
	step := func(y *tensor.Tensor) {
		// Recycle the previous pooled buffer once the pipeline has moved
		// past it. View layers (Flatten's Reshape, Dropout's inference
		// pass-through) return tensors sharing the same storage — detected
		// by first-element identity — which keeps the buffer alive.
		if pooled != nil && !sharesStorage(y, pooled) {
			tensor.Recycle(pooled)
			pooled = nil
		}
	}
	for i := from; i < to; i++ {
		l := n.Layers[i]
		c, ok := l.(Compressible)
		if !ok {
			y := l.Forward(x, false)
			step(y)
			x = y
			continue
		}
		lw, release, err := p.LayerWeights(c.Name())
		if errors.Is(err, ErrNotProvided) {
			y := c.Forward(x, false)
			step(y)
			x = y
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("nn: %s: %w", c.Name(), err)
		}
		fuse := false
		if i+1 < to {
			_, fuse = n.Layers[i+1].(*ReLU)
		}
		y := c.ForwardInference(x, lw, fuse)
		if release != nil {
			release()
		}
		if fuse {
			i++ // the ReLU ran inside the kernel epilogue
		}
		step(y)
		pooled = y
		x = y
	}
	return x, nil
}

// EvaluateFromWith is EvaluateFrom on the serving forward: layers
// [from, end) run through ForwardRangeWithProvider with weights from p.
// For finite activations and weights the accuracy equals EvaluateFrom's on
// a network holding the dense form of the same weights, because the
// logits are bit-identical (the kernel contract in tensor/matmul.go).
func (n *Network) EvaluateFromWith(from int, features *tensor.Tensor, ds *dataset.Set, batchSize int, p WeightProvider) (Accuracy, error) {
	acc, _, err := n.evaluateWith([]int{from}, features, ds, batchSize, p)
	return acc, err
}

// LayerInputs runs one inference pass of the whole network over ds, weights
// from p, and records what each layer in at (ascending layer indices)
// received: one [N, ...] tensor per entry, the features EvaluateFromWith(at[k])
// takes. It also returns the accuracy of the pass. This is the assessment's
// feature cache (DESIGN.md §4); it holds Σₖ N·inₖ floats.
func (n *Network) LayerInputs(at []int, ds *dataset.Set, batchSize int, p WeightProvider) ([]*tensor.Tensor, Accuracy, error) {
	acc, inputs, err := n.evaluateWith(append([]int{0}, at...), nil, ds, batchSize, p)
	return inputs, acc, err
}

// evaluateWith evaluates from layer cuts[0] (whose input is features, or
// the raw images when nil) to the end, one segment [cuts[k], cuts[k+1]) at
// a time, and returns the activations crossing every later cut as
// [N, ...] caches.
func (n *Network) evaluateWith(cuts []int, features *tensor.Tensor, ds *dataset.Set, batchSize int, p WeightProvider) (Accuracy, []*tensor.Tensor, error) {
	total, batchSize := evalSizes(features, ds, batchSize)
	caches := make([]*tensor.Tensor, len(cuts)-1)
	var top1, top5 int
	for lo := 0; lo < total; lo += batchSize {
		hi := min(lo+batchSize, total)
		x, labels := evalBatch(features, ds, lo, hi)
		for k, from := range cuts {
			last := k+1 == len(cuts)
			to := len(n.Layers)
			if !last {
				to = cuts[k+1]
			}
			y, err := n.ForwardRangeWithProvider(from, to, x, p)
			if err != nil {
				return Accuracy{}, nil, err
			}
			// y goes back to the pool once read, unless it is the segment's
			// own input (an empty range, or view layers only): the caller
			// still owns that.
			owned := !sharesStorage(y, x)
			if last {
				t1, t5 := countTopK(y, labels)
				top1 += t1
				top5 += t5
			} else {
				// The next segment reads the cached copy, not y.
				caches[k] = storeRows(caches[k], total, lo, hi, y)
				x, _ = evalBatch(caches[k], ds, lo, hi)
			}
			if owned {
				tensor.Recycle(y)
			}
		}
	}
	acc := Accuracy{Top1: float64(top1) / float64(total), Top5: float64(top5) / float64(total)}
	return acc, caches, nil
}

// sharesStorage reports whether two tensors are views over the same
// backing array, by first-element identity. Empty tensors share nothing.
func sharesStorage(a, b *tensor.Tensor) bool {
	return len(a.Data) > 0 && len(b.Data) > 0 && &a.Data[0] == &b.Data[0]
}

// StripWeights drops the weight and gradient storage of every compressible
// layer selected by covered (nil selects all), keeping shapes and biases.
// A stripped layer can only run through ForwardWithProvider with a provider
// that supplies it; stripping exists so serving clones don't pay for dense
// tensors the decode cache already budgets. Returns the number of float32
// values released.
func StripWeights(n *Network, covered func(name string) bool) int {
	freed := 0
	for _, c := range n.CompressibleLayers() {
		if covered != nil && !covered(c.Name()) {
			continue
		}
		p := c.WeightParam()
		freed += len(p.W.Data) + len(p.Grad.Data)
		p.W.Data = nil
		p.Grad.Data = nil
	}
	return freed
}

// StripDenseWeights strips every Dense layer (see StripWeights). Kept for
// fc-only callers.
func StripDenseWeights(n *Network) int {
	freed := 0
	for _, d := range n.DenseLayers() {
		freed += len(d.W.W.Data) + len(d.W.Grad.Data)
		d.W.W.Data = nil
		d.W.Grad.Data = nil
	}
	return freed
}
