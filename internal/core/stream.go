package core

import (
	"fmt"
	"os"
)

// This file implements layer-granular decoding, the paper's future-work
// direction of using DeepSZ to improve accelerator memory utilisation: a
// memory-constrained consumer keeps the model compressed and materialises
// one layer's dense weights at a time (peak extra memory = one layer
// instead of the whole compressed suffix).
//
// Concurrency contract: a *Model is immutable once produced by Generate,
// Unmarshal, or ReadModel. Every read-side method (LayerNames, Layer,
// DenseBytes, DecodeLayer, Decode, Marshal, TotalBytes) only reads the
// blobs and the name index and allocates fresh output buffers, so any
// number of goroutines may call them on a shared *Model simultaneously.
// This is what the serve package's decode cache relies on.

// ReadModel loads and parses a compressed model file written by WriteModel
// (or by `deepsz encode`).
func ReadModel(path string) (*Model, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := Unmarshal(blob)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", path, err)
	}
	return m, nil
}

// WriteModel serializes the model to path.
func (m *Model) WriteModel(path string) error {
	return os.WriteFile(path, m.Marshal(), 0o644)
}

// Layer returns the stored blob for the named layer, or nil. O(1) via the
// name index on models built by Generate/Unmarshal — this sits on the serve
// decode cache's per-request path.
func (m *Model) Layer(name string) *LayerBlob {
	if m.index != nil {
		if i, ok := m.index[name]; ok {
			return &m.Layers[i]
		}
		return nil
	}
	for i := range m.Layers {
		if m.Layers[i].Name == name {
			return &m.Layers[i]
		}
	}
	return nil
}

// LayerIndex returns the storage position of the named layer. O(1) via
// the name index on models built by Generate/Unmarshal.
func (m *Model) LayerIndex(name string) (int, bool) {
	if m.index != nil {
		i, ok := m.index[name]
		return i, ok
	}
	for i := range m.Layers {
		if m.Layers[i].Name == name {
			return i, true
		}
	}
	return 0, false
}

// DenseBytes returns the memory cost of the named layer once materialised:
// the dense weight tensor plus bias, in bytes. It is the unit the serve
// package's cache budget is accounted in. Returns 0 for unknown layers.
func (m *Model) DenseBytes(name string) int64 {
	l := m.Layer(name)
	if l == nil {
		return 0
	}
	return l.DenseBytes()
}

// TotalDenseBytes returns the summed DenseBytes of every layer: the
// memory a full decode materialises.
func (m *Model) TotalDenseBytes() int64 {
	var n int64
	for _, l := range m.Layers {
		n += l.DenseBytes()
	}
	return n
}

// MaxDenseBytes returns the largest DenseBytes over all layers — the
// minimum cache budget that can hold every layer one at a time.
func (m *Model) MaxDenseBytes() int64 {
	var max int64
	for _, l := range m.Layers {
		if b := l.DenseBytes(); b > max {
			max = b
		}
	}
	return max
}

// EstimatedDecodeCostNs returns a rough a-priori estimate of the wall
// time a DecodeLayer of this layer costs, in nanoseconds, computable
// without decoding anything. All three decode stages — lossless index
// decompression, lossy data decompression, and the reconstruction walk
// with its checksum — do work per stored entry, and a stored entry is
// about one compressed byte (1.0–1.2), so one constant covers them:
// measured over every layer of the four zoo nets and a 4096×2048 fc6 at
// 9 % density (527 B to 747 KB compressed, either resident form, with and
// without a decoded checksum) a decode costs 18–32 ns per compressed byte.
// There is no per-dense-slot term: a CSR-resident layer never touches its
// dense slots, and for a dense-resident one zeroing them adds under 1 ns
// per slot, inside that spread. Callers that can measure (the serve decode
// cache times every real decode) should prefer the measurement and use
// this only to rank layers before their first decode, e.g. to prefetch
// the most stall-masking layer first.
func (l *LayerBlob) EstimatedDecodeCostNs() int64 {
	const nsPerCompressedByte = 22
	return nsPerCompressedByte * int64(len(l.DataBlob)+len(l.IndexBlob))
}

// LayerNames returns the layers stored in the model, in order.
func (m *Model) LayerNames() []string {
	names := make([]string, len(m.Layers))
	for i, l := range m.Layers {
		names[i] = l.Name
	}
	return names
}

// DecodeLayer reconstructs a single layer without touching the others, in
// the form it should be resident in: CSR when its density is below
// sparseBelow, dense otherwise (sparseBelow <= 0 always yields dense). The
// returned layer shares nothing with the model (the bias is copied), so
// callers may mutate or retain it freely while other goroutines keep
// decoding from the same *Model.
func (m *Model) DecodeLayer(name string, sparseBelow float64) (*DecodedLayer, error) {
	l := m.Layer(name)
	if l == nil {
		return nil, fmt.Errorf("core: model has no layer %q", name)
	}
	dl, _, err := decodeLayerBlob(l, sparseBelow)
	if err != nil {
		return nil, err
	}
	return &dl, nil
}

// StreamDecode invokes fn for each layer in storage order, materialising
// only one layer's dense weights at a time. fn may retain the layer; the
// model never does. Decoding stops at the first error from fn.
func (m *Model) StreamDecode(fn func(*DecodedLayer) error) error {
	for i := range m.Layers {
		dl, _, err := decodeLayerBlob(&m.Layers[i], 0)
		if err != nil {
			return err
		}
		if err := fn(&dl); err != nil {
			return err
		}
	}
	return nil
}
