package huffman

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/tensor"
)

// refDecode is the decoder Decode replaced: it resolves every code one
// payload bit at a time with the canonical first-code comparison. It is the
// differential reference — the same blob decoded a second, slower way.
func refDecode(blob []byte) ([]uint32, error) {
	var t decodeTable
	n, payload, err := readHeader(blob, &t)
	if err != nil {
		return nil, err
	}
	r := bitstream.NewReader(payload)
	out := []uint32{}
	for len(out) < n {
		var code uint32
		for l := uint8(1); ; l++ {
			b, err := r.ReadBit()
			if err != nil {
				return nil, fmt.Errorf("%w: truncated payload", ErrCorrupt)
			}
			code = code<<1 | b
			if l > t.maxLen {
				return nil, fmt.Errorf("%w: code longer than table", ErrCorrupt)
			}
			if d := code - t.firstCode[l]; t.count[l] > 0 && d < uint32(t.count[l]) {
				out = append(out, t.syms[t.firstSym[l]+int(d)])
				break
			}
		}
	}
	return out, nil
}

// checkAgainstReference decodes blob both ways and fails on any difference
// in outcome, error text or symbols.
func checkAgainstReference(t *testing.T, blob []byte) {
	t.Helper()
	want, wantErr := refDecode(blob)
	got, err := Decode(blob)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("Decode error %v, reference %v", err, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("Decode returned %d symbols, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("symbol %d: Decode %d, reference %d", i, got[i], want[i])
		}
	}
}

// skewedBlob encodes under a hand-built code of lengths 1, 2, …, 31, 32, 32
// (what Fibonacci frequencies would earn, without the ~2^32 symbols needed to
// earn it), so most of its codes overflow the lookup table and the longest
// reach MaxCodeLen. Every symbol appears, the short ones many times over.
func skewedBlob() []byte {
	lengths := map[uint32]uint8{}
	for l := 1; l <= MaxCodeLen; l++ {
		lengths[uint32(1000+l)] = uint8(l)
	}
	lengths[2000] = MaxCodeLen
	var data []uint32
	rng := tensor.NewRNG(8)
	for i := 0; i < 600; i++ {
		data = append(data, uint32(1001+rng.Intn(4)), uint32(1001+rng.Intn(MaxCodeLen)))
	}
	data = append(data, 2000)
	return encodeWith(data, lengths)
}

// forgedOversubscribed is a blob whose length table claims three 1-bit codes
// and two 2-bit codes: the Kraft sum is 2, short codes shadow longer ones and
// the first-code arithmetic runs past the code space.
func forgedOversubscribed() []byte {
	blob := binary.LittleEndian.AppendUint32(nil, 24)
	blob = binary.LittleEndian.AppendUint32(blob, 5)
	for i, l := range []uint8{1, 1, 1, 2, 2} {
		blob = binary.LittleEndian.AppendUint32(blob, uint32(70+i))
		blob = append(blob, l)
	}
	blob = binary.LittleEndian.AppendUint32(blob, 4)
	return append(blob, 0x1B, 0xE4, 0x00, 0xFF)
}

// cutPayload drops the last k payload bytes of a well-formed blob and fixes
// the payload length field to match, so the framing still validates and the
// decoder runs out of bits in the middle of a code.
func cutPayload(blob []byte, k int) []byte {
	out := append([]byte(nil), blob[:len(blob)-k]...)
	at := 8 + 5*int(binary.LittleEndian.Uint32(out[4:8]))
	binary.LittleEndian.PutUint32(out[at:], binary.LittleEndian.Uint32(out[at:])-uint32(k))
	return out
}

func differentialSeeds() [][]byte {
	rng := tensor.NewRNG(3)
	quant := make([]uint32, 50000) // the symbols of TestGaussianQuantCodes
	for i := range quant {
		quant[i] = uint32(32768 + int(rng.NormFloat64()*3))
	}
	wide := make([]uint32, 5000) // > lutBits-bit codes from a flat 70000-symbol alphabet
	for i := range wide {
		wide[i] = uint32(rng.Intn(70000))
	}
	ten := Encode([]uint32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 1, 2, 3})
	skewed := skewedBlob()
	return [][]byte{
		{},
		Encode(nil),
		Encode([]uint32{42, 42, 42, 42, 42, 42, 42, 42, 42}),
		Encode([]uint32{0, 1, 0, 0, 1, 1, 1, 0, 0, 0}),
		ten,
		cutPayload(ten, 2),
		skewed,
		cutPayload(skewed, 3),
		forgedOversubscribed(),
		Encode(quant),
		Encode(wide),
	}
}

// FuzzDecode holds the table-driven Decode to the bit-at-a-time reference on
// arbitrary bytes: same symbols, same error. Its seed corpus, which plain
// `go test` runs, adds to each hand-picked blob a spread of single-byte
// corruptions of it.
func FuzzDecode(f *testing.F) {
	rng := tensor.NewRNG(17)
	for _, blob := range differentialSeeds() {
		f.Add(blob)
		for i := 0; i < 24 && len(blob) > 0; i++ {
			bad := append([]byte(nil), blob...)
			bad[rng.Intn(len(bad))] ^= 1 << rng.Intn(8)
			f.Add(bad)
		}
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		checkAgainstReference(t, blob)
	})
}
