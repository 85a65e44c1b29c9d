package nn

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/tensor"
)

// mapProvider serves weights from an in-memory map and counts releases.
// With sparse=true it hands back every layer in CSR form instead.
type mapProvider struct {
	w, b     map[string][]float32
	shape    map[string][]int
	sparse   bool
	released atomic.Int64
	fail     error
}

func (p *mapProvider) LayerWeights(name string) (LayerWeights, func(), error) {
	if p.fail != nil {
		return LayerWeights{}, nil, p.fail
	}
	w, ok := p.w[name]
	if !ok {
		return LayerWeights{}, nil, ErrNotProvided
	}
	lw := LayerWeights{Bias: p.b[name]}
	if p.sparse {
		s := p.shape[name]
		cols := 1
		for _, d := range s[1:] {
			cols *= d
		}
		lw.Sparse = tensor.CSRFromDense(w, s[0], cols)
	} else {
		lw.Dense = w
	}
	return lw, func() { p.released.Add(1) }, nil
}

func providerNet(seed uint64) *Network {
	rng := tensor.NewRNG(seed)
	return NewNetwork("prov-mlp",
		NewFlatten("flat"),
		NewDense("ip1", 12, 8, rng),
		NewReLU("relu1"),
		NewDense("ip2", 8, 4, rng),
	)
}

func TestForwardWithProviderMatchesForward(t *testing.T) {
	net := providerNet(5)
	x := tensor.New(3, 12)
	tensor.NewRNG(9).FillNormal(x.Data, 0, 1)
	want := net.Forward(x, false)

	p := &mapProvider{w: map[string][]float32{}, b: map[string][]float32{}}
	for _, d := range net.DenseLayers() {
		p.w[d.Name()] = append([]float32(nil), d.W.W.Data...)
		p.b[d.Name()] = append([]float32(nil), d.B.W.Data...)
	}
	clone := net.Clone()
	StripDenseWeights(clone)
	got, err := clone.ForwardWithProvider(x, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Data) != len(want.Data) {
		t.Fatalf("output length %d, want %d", len(got.Data), len(want.Data))
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("output %d: %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
	if int(p.released.Load()) != len(net.DenseLayers()) {
		t.Fatalf("released %d times, want %d", p.released.Load(), len(net.DenseLayers()))
	}
}

func TestForwardWithProviderFallback(t *testing.T) {
	net := providerNet(6)
	x := tensor.New(2, 12)
	tensor.NewRNG(3).FillNormal(x.Data, 0, 1)
	want := net.Forward(x, false)

	// Provider only covers ip1; ip2 must fall back to its own weights.
	p := &mapProvider{w: map[string][]float32{}, b: map[string][]float32{}}
	d := net.DenseLayers()[0]
	p.w[d.Name()] = append([]float32(nil), d.W.W.Data...)
	p.b[d.Name()] = append([]float32(nil), d.B.W.Data...)

	got, err := net.ForwardWithProvider(x, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("output %d diverged with partial provider", i)
		}
	}
}

func TestForwardWithProviderError(t *testing.T) {
	net := providerNet(7)
	x := tensor.New(1, 12)
	sentinel := errors.New("decode failed")
	_, err := net.ForwardWithProvider(x, &mapProvider{fail: sentinel})
	if !errors.Is(err, sentinel) {
		t.Fatalf("error %v, want wrapped sentinel", err)
	}
}

func TestForwardWithConcurrentSharedDense(t *testing.T) {
	rng := tensor.NewRNG(11)
	d := NewDense("fc", 16, 8, rng)
	w := append([]float32(nil), d.W.W.Data...)
	b := append([]float32(nil), d.B.W.Data...)
	x := tensor.New(4, 16)
	rng.FillNormal(x.Data, 0, 1)
	want := d.Forward(x, false)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 16; r++ {
				y := d.ForwardWith(x, w, b)
				for i := range want.Data {
					if y.Data[i] != want.Data[i] {
						t.Errorf("concurrent ForwardWith diverged at %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestStripDenseWeights(t *testing.T) {
	net := providerNet(8)
	var total int
	for _, d := range net.DenseLayers() {
		total += 2 * len(d.W.W.Data)
	}
	if freed := StripDenseWeights(net); freed != total {
		t.Fatalf("freed %d values, want %d", freed, total)
	}
	for _, d := range net.DenseLayers() {
		if d.W.W.Data != nil || d.W.Grad.Data != nil {
			t.Fatalf("%s still holds weight storage", d.Name())
		}
		if len(d.B.W.Data) != d.Out {
			t.Fatalf("%s bias was stripped", d.Name())
		}
	}
	// Cloning a stripped network must not reallocate the dense storage:
	// serving pools clone stripped templates and rely on the clones
	// staying storage-free.
	for _, d := range net.Clone().DenseLayers() {
		if d.W.W.Data != nil || d.W.Grad.Data != nil {
			t.Fatalf("clone of stripped net reallocated %s storage", d.Name())
		}
	}
}

// TestLayerInputsFeedEvaluateFromWith: the caches LayerInputs records are
// the activations the plain forward produces at those layers (the first one
// is FeatureCache's), its accuracy is Evaluate's, and evaluating from any of
// them through the provider gives that accuracy again — dense or CSR
// weights, ragged last batch, cuts at the network's first layer, behind a
// fusable ReLU and on a ReLU itself.
func TestLayerInputsFeedEvaluateFromWith(t *testing.T) {
	rng := tensor.NewRNG(21)
	net := tinyMLP(rng)
	test := dataset.SynthMNIST(70, 13)
	want := net.Evaluate(test, 32)
	for _, sparse := range []bool{false, true} {
		p := &mapProvider{w: map[string][]float32{}, b: map[string][]float32{}, shape: map[string][]int{}, sparse: sparse}
		for _, d := range net.DenseLayers() {
			p.w[d.Name()], p.b[d.Name()], p.shape[d.Name()] = d.W.W.Data, d.B.W.Data, d.WeightShape()
		}
		for _, at := range [][]int{{1, 3}, {0, 2, 3}, {3}} {
			inputs, acc, err := net.LayerInputs(at, test, 32, p)
			if err != nil {
				t.Fatal(err)
			}
			if acc != want {
				t.Fatalf("sparse=%v at=%v: pass accuracy %+v, Evaluate %+v", sparse, at, acc, want)
			}
			for k, from := range at {
				ref := net.FeatureCache(from, test, 32)
				if len(inputs[k].Data) != len(ref.Data) {
					t.Fatalf("sparse=%v at=%v: input of layer %d has %d values, want %d", sparse, at, from, len(inputs[k].Data), len(ref.Data))
				}
				for i := range ref.Data {
					if inputs[k].Data[i] != ref.Data[i] {
						t.Fatalf("sparse=%v at=%v: input of layer %d differs from the plain forward at %d", sparse, at, from, i)
					}
				}
				got, err := net.EvaluateFromWith(from, inputs[k], test, 32, p)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("sparse=%v: evaluating from layer %d gave %+v, want %+v", sparse, from, got, want)
				}
			}
		}
	}
	sentinel := errors.New("decode failed")
	if _, _, err := net.LayerInputs([]int{1}, test, 32, &mapProvider{fail: sentinel}); !errors.Is(err, sentinel) {
		t.Fatalf("LayerInputs error %v, want the provider's", err)
	}
}
