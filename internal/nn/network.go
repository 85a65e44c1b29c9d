package nn

import (
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/tensor"
)

// Network is an ordered stack of layers ending in class logits.
type Network struct {
	NetName string
	Layers  []Layer
}

// NewNetwork creates a network from layers.
func NewNetwork(name string, layers ...Layer) *Network {
	return &Network{NetName: name, Layers: layers}
}

// Name returns the network's identifier.
func (n *Network) Name() string { return n.NetName }

// Forward runs all layers on x.
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return n.ForwardRange(0, len(n.Layers), x, train)
}

// ForwardRange runs layers [from, to) on x with the network's own weights.
// It underpins FeatureCache and EvaluateFrom: a prefix evaluated once, a
// suffix evaluated from its cached output.
func (n *Network) ForwardRange(from, to int, x *tensor.Tensor, train bool) *tensor.Tensor {
	if from < 0 || to > len(n.Layers) || from > to {
		panic(fmt.Sprintf("nn: ForwardRange [%d,%d) of %d layers", from, to, len(n.Layers)))
	}
	for _, l := range n.Layers[from:to] {
		x = l.Forward(x, train)
	}
	return x
}

// Backward propagates the loss gradient through all layers.
func (n *Network) Backward(grad *tensor.Tensor) {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad = n.Layers[i].Backward(grad)
	}
}

// Params returns every trainable parameter in layer order.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrads clears all parameter gradients.
func (n *Network) ZeroGrads() {
	for _, p := range n.Params() {
		p.Grad.Zero()
	}
}

// DenseLayers returns the fully connected layers in order — the layers
// DeepSZ prunes and compresses by default (CompressibleLayers covers the
// whole-network selection).
func (n *Network) DenseLayers() []*Dense {
	var ds []*Dense
	for _, l := range n.Layers {
		if d, ok := l.(*Dense); ok {
			ds = append(ds, d)
		}
	}
	return ds
}

// LayerIndex returns the position of the layer with the given name, or -1.
func (n *Network) LayerIndex(name string) int {
	for i, l := range n.Layers {
		if l.Name() == name {
			return i
		}
	}
	return -1
}

// FirstDenseIndex returns the index of the first Dense layer, or -1.
func (n *Network) FirstDenseIndex() int {
	for i, l := range n.Layers {
		if _, ok := l.(*Dense); ok {
			return i
		}
	}
	return -1
}

// ParamBytes returns the total parameter storage in bytes (float32) and the
// bytes belonging to Dense layers.
func (n *Network) ParamBytes() (total, dense int64) {
	for _, l := range n.Layers {
		for _, p := range l.Params() {
			b := int64(len(p.W.Data)) * 4
			total += b
			if _, ok := l.(*Dense); ok {
				dense += b
			}
		}
	}
	return total, dense
}

// Accuracy holds top-1 and top-5 evaluation results.
type Accuracy struct {
	Top1 float64
	Top5 float64
}

// Evaluate runs inference over ds in batches and returns top-1/top-5
// accuracy. Deterministic given the network and dataset.
func (n *Network) Evaluate(ds *dataset.Set, batchSize int) Accuracy {
	return n.EvaluateFrom(0, nil, ds, batchSize)
}

// EvaluateFrom evaluates starting at layer index `from`. If features is
// non-nil it is used as the input to layer `from` (one row per example,
// shape [N, ...]); otherwise the raw images are used (and from must be 0).
func (n *Network) EvaluateFrom(from int, features *tensor.Tensor, ds *dataset.Set, batchSize int) Accuracy {
	total, batchSize := evalSizes(features, ds, batchSize)
	var top1, top5 int
	for lo := 0; lo < total; lo += batchSize {
		x, labels := evalBatch(features, ds, lo, min(lo+batchSize, total))
		t1, t5 := countTopK(n.ForwardRange(from, len(n.Layers), x, false), labels)
		top1 += t1
		top5 += t5
	}
	return Accuracy{
		Top1: float64(top1) / float64(total),
		Top5: float64(top5) / float64(total),
	}
}

// evalSizes validates a feature cache against ds and applies the default
// evaluation batch size (100).
func evalSizes(features *tensor.Tensor, ds *dataset.Set, batchSize int) (total, batch int) {
	total = ds.Len()
	if features != nil && features.Shape[0] != total {
		panic("nn: feature cache size mismatch")
	}
	if batchSize <= 0 {
		batchSize = 100
	}
	return total, batchSize
}

// evalBatch returns the input and labels of examples [lo, hi): those rows
// of features when it is non-nil (a view, not a copy), the raw images
// otherwise.
func evalBatch(features *tensor.Tensor, ds *dataset.Set, lo, hi int) (*tensor.Tensor, []int) {
	if features != nil {
		rowSz := features.Len() / features.Shape[0]
		x := tensor.FromSlice(features.Data[lo*rowSz:hi*rowSz], append([]int{hi - lo}, features.Shape[1:]...)...)
		return x, ds.Labels[lo:hi]
	}
	idx := make([]int, hi-lo)
	for i := range idx {
		idx[i] = lo + i
	}
	return ds.Batch(idx)
}

// countTopK returns the number of rows whose label is the argmax (top-1) and
// within the 5 largest logits (top-5).
func countTopK(logits *tensor.Tensor, labels []int) (top1, top5 int) {
	nRows, c := logits.Shape[0], logits.Shape[1]
	k := 5
	if k > c {
		k = c
	}
	idx := make([]int, c)
	for i := 0; i < nRows; i++ {
		row := logits.Data[i*c : (i+1)*c]
		for j := range idx {
			idx[j] = j
		}
		sort.Slice(idx, func(a, b int) bool { return row[idx[a]] > row[idx[b]] })
		if idx[0] == labels[i] {
			top1++
		}
		for j := 0; j < k; j++ {
			if idx[j] == labels[i] {
				top5++
				break
			}
		}
	}
	return top1, top5
}

// FeatureCache precomputes activations of layers [0, upto) for every example
// in ds, to be fed to EvaluateFrom(upto, ...): the input of one layer, from
// the network's own weights. LayerInputs is the several-layer form the
// assessment uses (DESIGN.md §4).
func (n *Network) FeatureCache(upto int, ds *dataset.Set, batchSize int) *tensor.Tensor {
	total, batchSize := evalSizes(nil, ds, batchSize)
	var out *tensor.Tensor
	for lo := 0; lo < total; lo += batchSize {
		hi := min(lo+batchSize, total)
		x, _ := evalBatch(nil, ds, lo, hi)
		out = storeRows(out, total, lo, hi, n.ForwardRange(0, upto, x, false))
	}
	return out
}

// storeRows copies a batch's activations f into rows [lo, hi) of the
// [total, ...] cache, allocating it from f's per-row shape on the first batch.
func storeRows(cache *tensor.Tensor, total, lo, hi int, f *tensor.Tensor) *tensor.Tensor {
	if cache == nil {
		cache = tensor.New(append([]int{total}, f.Shape[1:]...)...)
	}
	rowSz := f.Len() / f.Shape[0]
	copy(cache.Data[lo*rowSz:hi*rowSz], f.Data)
	return cache
}
