package core

import (
	"path/filepath"
	"sync"
	"testing"
)

// TestDecodeLayerConcurrent hammers a shared *Model with goroutines that
// decode every layer simultaneously, verifying the concurrency contract
// stated in stream.go: reads allocate fresh buffers and never mutate the
// model. Run with -race (CI does) to make the guarantee meaningful.
func TestDecodeLayerConcurrent(t *testing.T) {
	net := prunedMLP(31)
	m, err := Generate(net, simplePlan(net, 1e-3), Config{ExpectedAccuracyLoss: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := m.Decode()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]DecodedLayer{}
	for _, dl := range want {
		byName[dl.Name] = dl
	}

	const goroutines = 16
	const rounds = 8
	names := m.LayerNames()
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				name := names[(g+r)%len(names)]
				dl, err := m.DecodeLayer(name, 0)
				if err != nil {
					errs <- err
					return
				}
				ref := byName[name]
				for i := range ref.Weights {
					if dl.Weights[i] != ref.Weights[i] {
						t.Errorf("%s: concurrent decode diverged at weight %d", name, i)
						return
					}
				}
				// Scribble on the returned layer: it must not alias model
				// state seen by other decoders.
				for i := range dl.Bias {
					dl.Bias[i] = -1
				}
				for i := range dl.Weights {
					dl.Weights[i] = -1
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The model is untouched: a final decode still matches the reference.
	for name, ref := range byName {
		dl, err := m.DecodeLayer(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.Bias {
			if dl.Bias[i] != ref.Bias[i] {
				t.Fatalf("%s: bias mutated through a previously returned layer", name)
			}
		}
	}
}

func TestReadWriteModelRoundTrip(t *testing.T) {
	net := prunedMLP(32)
	m, err := Generate(net, simplePlan(net, 1e-3), Config{ExpectedAccuracyLoss: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.dsz")
	if err := m.WriteModel(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NetName != m.NetName || len(got.Layers) != len(m.Layers) {
		t.Fatalf("round trip: got %s/%d layers, want %s/%d",
			got.NetName, len(got.Layers), m.NetName, len(m.Layers))
	}
	if got.TotalBytes() != m.TotalBytes() {
		t.Fatalf("round trip: %d bytes, want %d", got.TotalBytes(), m.TotalBytes())
	}
	if _, err := ReadModel(filepath.Join(t.TempDir(), "missing.dsz")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestDenseBytes(t *testing.T) {
	net := prunedMLP(33)
	m, err := Generate(net, simplePlan(net, 1e-2), Config{ExpectedAccuracyLoss: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.DenseBytes("ip1"), int64(4*(784*64+64)); got != want {
		t.Fatalf("DenseBytes(ip1) = %d, want %d", got, want)
	}
	if got := m.DenseBytes("nope"); got != 0 {
		t.Fatalf("DenseBytes(nope) = %d, want 0", got)
	}
	if got, want := m.MaxDenseBytes(), m.DenseBytes("ip1"); got != want {
		t.Fatalf("MaxDenseBytes = %d, want %d", got, want)
	}
	if m.Layer("ip2") == nil || m.Layer("nope") != nil {
		t.Fatal("Layer lookup broken")
	}
}
