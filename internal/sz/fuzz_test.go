package sz

import (
	"errors"
	"testing"

	"repro/internal/tensor"
)

// Failure injection: Decompress must reject or survive arbitrary corruption
// without panicking or allocating absurdly.

func TestDecompressSurvivesRandomCorruption(t *testing.T) {
	rng := tensor.NewRNG(1)
	data := weightLike(rng, 5000)
	blob, err := Compress(data, Options{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 500; trial++ {
		bad := append([]byte(nil), blob...)
		flips := 1 + rng.Intn(16)
		for i := 0; i < flips; i++ {
			p := rng.Intn(len(bad))
			bad[p] ^= 1 << rng.Intn(8)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: panic: %v", trial, r)
				}
			}()
			_, _ = Decompress(bad)
		}()
	}
}

func TestDecompressSurvivesTruncation(t *testing.T) {
	rng := tensor.NewRNG(2)
	blob, _ := Compress(weightLike(rng, 2000), Options{ErrorBound: 1e-3})
	for cut := 0; cut <= len(blob); cut += 1 + len(blob)/113 {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("cut %d: panic: %v", cut, r)
				}
			}()
			_, _ = Decompress(blob[:cut])
		}()
	}
}

// TestDecompressRejectsShortHeader cuts a valid blob at every length below
// the 36-byte header, with capacity equal to length so that a read past the
// cut panics instead of quietly landing in the bytes behind it.
func TestDecompressRejectsShortHeader(t *testing.T) {
	blob, err := Compress(weightLike(tensor.NewRNG(5), 64), Options{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 36; n++ {
		if _, err := Decompress(blob[:n:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%d-byte blob: got %v, want ErrCorrupt", n, err)
		}
	}
}

func TestDecompressRejectsForgedHugeCount(t *testing.T) {
	rng := tensor.NewRNG(3)
	blob, _ := Compress(weightLike(rng, 100), Options{ErrorBound: 1e-3})
	// Forge the value count (bytes 8..16, little endian) to 2^40.
	for i := 8; i < 16; i++ {
		blob[i] = 0
	}
	blob[13] = 1 // 2^40
	if _, err := Decompress(blob); err == nil {
		t.Fatal("expected rejection of forged count")
	}
}

func TestDecompressGarbage(t *testing.T) {
	rng := tensor.NewRNG(4)
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		garbage := make([]byte, n)
		for i := range garbage {
			garbage[i] = byte(rng.Uint64())
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: panic on garbage: %v", trial, r)
				}
			}()
			_, _ = Decompress(garbage)
		}()
	}
}
