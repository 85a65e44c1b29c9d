package core

// Corrupted-byte table tests for every stream version: a flip in the
// header, a blob, a stored CRC field, or a truncation must surface as an
// error (typed, for v4's integrity checks) — never as silently wrong
// weights. These are the deterministic complement to the random-mutation
// tests in fuzz_test.go.

import (
	"encoding/binary"
	"errors"
	"testing"
)

// corruptAt returns a copy of blob with one bit flipped at off.
func corruptAt(blob []byte, off int) []byte {
	out := append([]byte(nil), blob...)
	out[off] ^= 0x01
	return out
}

// decodeOutcome classifies what a corrupted stream does end to end:
// rejected at Unmarshal, rejected at Decode, or decoded to values that
// differ from the reference (the only acceptable silent path — pre-v4
// streams cannot detect payload rot).
func decodeOutcome(t *testing.T, blob []byte, ref []DecodedLayer) (unmarshalErr, decodeErr error, differs bool) {
	t.Helper()
	m, err := Unmarshal(blob)
	if err != nil {
		return err, nil, false
	}
	layers, _, err := m.Decode()
	if err != nil {
		return nil, err, false
	}
	if len(layers) != len(ref) {
		return nil, nil, true
	}
	for i := range layers {
		a, b := layers[i], ref[i]
		if a.Name != b.Name || len(a.Weights) != len(b.Weights) || len(a.Bias) != len(b.Bias) {
			return nil, nil, true
		}
		for j := range a.Weights {
			if a.Weights[j] != b.Weights[j] {
				return nil, nil, true
			}
		}
		for j := range a.Bias {
			if a.Bias[j] != b.Bias[j] {
				return nil, nil, true
			}
		}
	}
	return nil, nil, false
}

// TestCorruptionTable flips single bits at structurally meaningful
// offsets of each stream version and checks the reader's verdict.
func TestCorruptionTable(t *testing.T) {
	m := goldenModelV4(t)
	ref, _, err := m.Decode()
	if err != nil {
		t.Fatal(err)
	}
	v1 := marshalV1(t, m)
	v2 := marshalV2(t, m)
	v3 := marshalV3(t, m)
	v4 := m.Marshal()

	// Offsets into the v4 stream, mirroring Marshal's layout.
	digestOff := 4 + 1 + 2 + len(m.NetName)
	l0 := &m.Layers[0]
	nameOff := digestOff + 4 + 2
	flagsOff := nameOff + 2 + len(l0.Name) + 1 + 1 + 4*len(l0.Shape) + 8 + 4 + 4*len(l0.Bias) + 1
	dataBlobOff := flagsOff + 1 + 4
	dataCRCOff := dataBlobOff + len(l0.DataBlob)

	cases := []struct {
		name string
		blob []byte
		// wantDetect: the corruption must be caught (error somewhere).
		// When false, a silent value change is tolerated (pre-v4 payload).
		wantDetect bool
	}{
		{"v1 header flip", corruptAt(v1, 5), false},
		{"v1 blob flip", corruptAt(v1, len(v1)/2), false},
		{"v2 header flip", corruptAt(v2, 5), false},
		{"v2 blob flip", corruptAt(v2, len(v2)/2), false},
		{"v3 header flip", corruptAt(v3, 5), false},
		{"v3 blob flip", corruptAt(v3, len(v3)/2), false},
		{"v4 digest flip", corruptAt(v4, digestOff), true},
		{"v4 header flip", corruptAt(v4, nameOff), true},
		{"v4 flags flip", corruptAt(v4, flagsOff), true},
		{"v4 blob flip", corruptAt(v4, dataBlobOff), true},
		{"v4 stored-CRC flip", corruptAt(v4, dataCRCOff), true},
		{"v4 tail flip", corruptAt(v4, len(v4)-1), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			uErr, dErr, differs := decodeOutcome(t, tc.blob, ref)
			if tc.wantDetect {
				if uErr == nil && dErr == nil {
					t.Fatalf("corruption not detected (differs=%v)", differs)
				}
				err := uErr
				if err == nil {
					err = dErr
				}
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("detected, but not as ErrCorrupt: %v", err)
				}
			} else if uErr == nil && dErr == nil && !differs {
				// A flip the pre-v4 reader neither rejects nor propagates
				// into values would mean the bit wasn't load-bearing —
				// possible for some offsets, but not the chosen ones.
				t.Fatalf("flip had no observable effect")
			}
		})
	}

	// Truncation at every boundary-ish point must error for all versions.
	for _, v := range []struct {
		name string
		blob []byte
	}{{"v1", v1}, {"v2", v2}, {"v3", v3}, {"v4", v4}} {
		for _, cut := range []int{3, 6, len(v.blob) / 2, len(v.blob) - 1} {
			if _, err := Unmarshal(v.blob[:cut]); err == nil {
				t.Fatalf("%s truncated at %d: accepted", v.name, cut)
			}
		}
	}
}

// TestForgedCRCRejectedAtDecode seals a v4 stream around a forged blob
// CRC: Unmarshal accepts it (the digest holds), but DecodeLayer must
// reject the layer with a typed blob-corruption error — the contract is
// "error, never wrong bytes", not "rejected at load".
func TestForgedCRCRejectedAtDecode(t *testing.T) {
	m := goldenModelV4(t)
	v4 := m.Marshal()
	digestOff := 4 + 1 + 2 + len(m.NetName)
	l0 := &m.Layers[0]
	dataCRCOff := digestOff + 4 + 2 + 2 + len(l0.Name) + 1 + 1 + 4*len(l0.Shape) +
		8 + 4 + 4*len(l0.Bias) + 1 + 1 + 4 + len(l0.DataBlob)

	bad := append([]byte(nil), v4...)
	binary.LittleEndian.PutUint32(bad[dataCRCOff:], 0xDEADBEEF)
	binary.LittleEndian.PutUint32(bad[digestOff:], crc32c(bad[digestOff+4:]))

	mm, err := Unmarshal(bad)
	if err != nil {
		t.Fatalf("resealed stream rejected at Unmarshal: %v", err)
	}
	_, err = mm.DecodeLayer(l0.Name, 0)
	if err == nil {
		t.Fatal("forged blob CRC not caught at decode")
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("not a CorruptError: %v", err)
	}
	if ce.Kind != CorruptBlob || ce.Layer != l0.Name {
		t.Fatalf("got kind=%v layer=%q, want blob/%q", ce.Kind, ce.Layer, l0.Name)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatal("CorruptError does not match ErrCorrupt")
	}
}

// TestDecodedChecksumCatchesBlobConsistentFault forges a v4 layer whose
// blob CRC and digest are both consistent with a tampered payload — the
// storage-level checks all pass, and only the decoded checksum can catch
// it. This is the criticality-aware layer of defense: for checksummed
// layers, even a fault that rewrites blob and CRC together cannot produce
// silently wrong weights.
func TestDecodedChecksumCatchesBlobConsistentFault(t *testing.T) {
	m := goldenModelV4(t)
	l0 := &m.Layers[0]
	// Tamper with the payload, then make the blob CRC match the tampered
	// bytes. Marshal reseals the digest automatically.
	l0.DataBlob[len(l0.DataBlob)/2] ^= 0x10
	l0.DataCRC = crc32c(l0.DataBlob)

	mm, err := Unmarshal(m.Marshal())
	if err != nil {
		t.Fatalf("consistent forgery rejected at Unmarshal: %v", err)
	}
	_, err = mm.DecodeLayer(l0.Name, 0)
	if err == nil {
		t.Fatal("blob-consistent fault not caught")
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("not a CorruptError: %v", err)
	}
	// The codec may reject the tampered blob outright (blob kind) or
	// decode it to different values (decoded kind); both are detections.
	if ce.Kind != CorruptDecoded && ce.Kind != CorruptBlob {
		t.Fatalf("got kind %v, want decoded or blob", ce.Kind)
	}
}

// TestCorruptErrorTyping pins the errors.Is/As contract serve and the
// gateway rely on.
func TestCorruptErrorTyping(t *testing.T) {
	err := error(&CorruptError{Layer: "ip1", Kind: CorruptDecoded, Detail: "x"})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatal("CorruptError must match ErrCorrupt")
	}
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Layer != "ip1" || ce.Kind != CorruptDecoded {
		t.Fatal("errors.As lost the layer/kind")
	}
	for kind, want := range map[CorruptKind]string{
		CorruptHeader: "header", CorruptBlob: "blob",
		CorruptDecoded: "decoded", CorruptCache: "cache",
	} {
		if kind.String() != want {
			t.Fatalf("kind %d stringifies as %q, want %q", kind, kind.String(), want)
		}
	}
}
