package core

import (
	"errors"
	"testing"
)

func TestDecodeLayerMatchesFullDecode(t *testing.T) {
	net := prunedMLP(20)
	m, err := Generate(net, simplePlan(net, 1e-3), Config{ExpectedAccuracyLoss: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := m.Decode()
	if err != nil {
		t.Fatal(err)
	}
	names := m.LayerNames()
	if len(names) != len(full) {
		t.Fatalf("LayerNames %v vs %d decoded layers", names, len(full))
	}
	for i, name := range names {
		single, err := m.DecodeLayer(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if single.Name != full[i].Name {
			t.Fatalf("layer order mismatch: %s vs %s", single.Name, full[i].Name)
		}
		for j := range full[i].Weights {
			if single.Weights[j] != full[i].Weights[j] {
				t.Fatalf("%s weight %d differs between streamed and full decode", name, j)
			}
		}
		for j := range full[i].Bias {
			if single.Bias[j] != full[i].Bias[j] {
				t.Fatalf("%s bias %d differs", name, j)
			}
		}
	}
}

func TestDecodeLayerUnknown(t *testing.T) {
	net := prunedMLP(21)
	m, _ := Generate(net, simplePlan(net, 1e-2), Config{ExpectedAccuracyLoss: 0.01})
	if _, err := m.DecodeLayer("nope", 0); err == nil {
		t.Fatal("expected error for unknown layer")
	}
}

func TestStreamDecodeVisitsAllInOrder(t *testing.T) {
	net := prunedMLP(22)
	m, _ := Generate(net, simplePlan(net, 1e-2), Config{ExpectedAccuracyLoss: 0.01})
	var seen []string
	if err := m.StreamDecode(func(dl *DecodedLayer) error {
		seen = append(seen, dl.Name)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := m.LayerNames()
	if len(seen) != len(want) {
		t.Fatalf("visited %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("order %v, want %v", seen, want)
		}
	}
}

func TestStreamDecodeStopsOnCallbackError(t *testing.T) {
	net := prunedMLP(23)
	m, _ := Generate(net, simplePlan(net, 1e-2), Config{ExpectedAccuracyLoss: 0.01})
	sentinel := errors.New("stop")
	calls := 0
	err := m.StreamDecode(func(*DecodedLayer) error {
		calls++
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("error %v, want sentinel", err)
	}
	if calls != 1 {
		t.Fatalf("callback ran %d times after error", calls)
	}
}
