package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// CloneLayer deep-copies a layer's parameters (masks are shared read-only;
// cached activations are not copied). Clones give a caller weights it may
// overwrite — Encode's verification, the evaluation figures' error-bound
// sweeps — without touching the network it was handed.
func CloneLayer(l Layer) Layer {
	switch v := l.(type) {
	case *Dense:
		c := &Dense{LayerName: v.LayerName, In: v.In, Out: v.Out}
		c.W = cloneParam(v.W)
		c.B = cloneParam(v.B)
		return c
	case *Conv2D:
		c := &Conv2D{
			LayerName: v.LayerName,
			InC:       v.InC, OutC: v.OutC, K: v.K, Stride: v.Stride, Pad: v.Pad,
		}
		c.W = cloneParam(v.W)
		c.B = cloneParam(v.B)
		return c
	case *ReLU:
		return NewReLU(v.LayerName)
	case *Flatten:
		return NewFlatten(v.LayerName)
	case *MaxPool2D:
		return NewMaxPool2D(v.LayerName, v.K, v.Stride)
	case *Dropout:
		return NewDropout(v.LayerName, v.Rate, v.rng)
	case *LRN:
		return NewLRN(v.LayerName, v.Size, v.Alpha, v.Beta, v.K)
	}
	panic(fmt.Sprintf("nn: CloneLayer: unsupported layer type %T", l))
}

func cloneParam(p *Param) *Param {
	var grad *tensor.Tensor
	if p.Grad.Data != nil {
		grad = tensor.New(p.Grad.Shape...)
	} else {
		// Stripped param (see StripDenseWeights): keep the clone
		// storage-free so pooled serving clones stay small.
		grad = &tensor.Tensor{Shape: append([]int(nil), p.Grad.Shape...)}
	}
	return &Param{
		Name: p.Name,
		W:    p.W.Clone(),
		Grad: grad,
		Mask: p.Mask,
	}
}

// Clone deep-copies the network (see CloneLayer for sharing semantics).
func (n *Network) Clone() *Network {
	layers := make([]Layer, len(n.Layers))
	for i, l := range n.Layers {
		layers[i] = CloneLayer(l)
	}
	return &Network{NetName: n.NetName, Layers: layers}
}

// CloneRange deep-copies layers [from, to) as a standalone network.
func (n *Network) CloneRange(from, to int) *Network {
	if from < 0 || to > len(n.Layers) || from > to {
		panic(fmt.Sprintf("nn: CloneRange [%d,%d) of %d layers", from, to, len(n.Layers)))
	}
	layers := make([]Layer, 0, to-from)
	for _, l := range n.Layers[from:to] {
		layers = append(layers, CloneLayer(l))
	}
	return &Network{NetName: n.NetName + "-suffix", Layers: layers}
}
