package core

// Integrity layer for the .dsz stream and everything decoded from it. A
// fleet that serves every prediction from compressed bytes has three
// distinct corruption surfaces: the stored container (bad disk, torn
// write), the compressed blobs once resident in a process (bit flip in
// page cache or heap), and the decoded dense weights living in a decode
// cache for minutes at a time. Version-4 streams carry CRC32C checksums
// at each granularity — a whole-model digest in the header, a CRC per
// compressed blob, and (for accuracy-critical layers) a checksum over
// the decoded dense bytes — so each surface is verified at the moment
// it is consumed, and a failure is attributed to the surface that
// actually rotted. CRC32C (Castagnoli) is hardware-accelerated on every
// deployment target and detects all burst errors up to 32 bits, which
// is the fault model here (flips, not adversaries).

import (
	"encoding/binary"
	"hash/crc32"
	"math"
)

// castagnoli is the CRC32C table shared by every integrity check.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crc32c returns the CRC32C checksum of b.
func crc32c(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// CorruptKind classifies where corruption was detected — which copy of
// the data rotted, not merely that something failed.
type CorruptKind uint8

const (
	// CorruptHeader marks container-level damage: bad structure, or a
	// whole-model digest mismatch at Unmarshal.
	CorruptHeader CorruptKind = iota
	// CorruptBlob marks a compressed blob (data or index array) whose
	// stored CRC no longer matches — a storage or resident-blob fault
	// caught before decompression touches the bytes.
	CorruptBlob
	// CorruptDecoded marks a decode whose reconstructed dense bytes
	// mismatch the stream's decoded checksum: the blob CRCs held, so the
	// fault is on the decode path itself.
	CorruptDecoded
	// CorruptCache marks a decoded layer that verified on fill but later
	// failed a resident re-check — an in-memory flip after decode. The
	// cache ejects the entry, so a retry self-heals.
	CorruptCache
)

// String returns the kind's metric label (header, blob, decoded, cache).
func (k CorruptKind) String() string {
	switch k {
	case CorruptBlob:
		return "blob"
	case CorruptDecoded:
		return "decoded"
	case CorruptCache:
		return "cache"
	}
	return "header"
}

// CorruptError pinpoints one detected integrity failure. It matches
// errors.Is(err, ErrCorrupt), so callers that only care about
// "corrupt or not" keep working; errors.As extracts the layer and the
// surface for quarantine and telemetry decisions.
type CorruptError struct {
	Layer  string // offending layer; empty when the whole container is at fault
	Kind   CorruptKind
	Detail string
}

// Error implements error.
func (e *CorruptError) Error() string {
	msg := "core: corrupt model"
	if e.Layer != "" {
		msg += " layer " + e.Layer
	}
	msg += " (" + e.Kind.String() + ")"
	if e.Detail != "" {
		msg += ": " + e.Detail
	}
	return msg
}

// Is reports ErrCorrupt as a match, keeping every existing
// errors.Is(err, core.ErrCorrupt) check true for typed failures.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// DecodedChecksum returns the CRC32C over a layer's decoded dense
// representation: every weight, then every bias, as little-endian
// float32 bits. Encoding through explicit byte order (rather than an
// in-memory view) makes the checksum a property of the values, portable
// across architectures — the same stream verifies on any reader.
func DecodedChecksum(weights, bias []float32) uint32 {
	var crc uint32
	crc = updateF32(crc, weights)
	return updateF32(crc, bias)
}

// crcWords folds a stream of little-endian 32-bit words into a CRC32C
// through a fixed scratch buffer, so checksumming a multi-megabyte layer
// allocates nothing and costs a crc32.Update per 4 KB, not per word. The
// buffer is kept zero beyond n, which makes a short run of zero words —
// the common case between two surviving weights — a bare advance of n.
type crcWords struct {
	crc uint32
	n   int
	buf [4096]byte
}

// zeroPage is what crcWords feeds for runs of zero words longer than the
// scratch buffer has room for.
var zeroPage [4096]byte

func (w *crcWords) flush() {
	w.crc = crc32.Update(w.crc, castagnoli, w.buf[:w.n])
	clear(w.buf[:w.n])
	w.n = 0
}

func (w *crcWords) word(u uint32) {
	if w.n == len(w.buf) {
		w.flush()
	}
	binary.LittleEndian.PutUint32(w.buf[w.n:], u)
	w.n += 4
}

// zeros folds count zero words — a pruned run of the dense tensor, which
// the decode walk checksums without ever materialising it.
func (w *crcWords) zeros(count int) {
	nb := 4 * count
	if nb <= len(w.buf)-w.n {
		w.n += nb
		return
	}
	w.flush()
	for ; nb > len(zeroPage); nb -= len(zeroPage) {
		w.crc = crc32.Update(w.crc, castagnoli, zeroPage[:])
	}
	w.crc = crc32.Update(w.crc, castagnoli, zeroPage[:nb])
}

// f32s folds vals as float32 bits and returns the running checksum.
func (w *crcWords) f32s(vals []float32) uint32 {
	for _, v := range vals {
		w.word(math.Float32bits(v))
	}
	w.flush()
	return w.crc
}

// updateF32 folds vals into crc.
func updateF32(crc uint32, vals []float32) uint32 {
	w := crcWords{crc: crc}
	return w.f32s(vals)
}

// updateI32 is updateF32 for int32 slices (CSR row pointers).
func updateI32(crc uint32, vals []int32) uint32 {
	w := crcWords{crc: crc}
	for _, v := range vals {
		w.word(uint32(v))
	}
	w.flush()
	return w.crc
}

// Checksum returns the CRC32C over the layer's resident representation —
// dense weights or CSR arrays, then biases. It is the re-check value a
// cache computes at fill time and compares against during scrubs and
// release-time verification; dense and CSR forms checksum differently
// (they are different bytes), which is fine because the comparison is
// always fill-time against now, same representation both sides.
func (dl *DecodedLayer) Checksum() uint32 {
	if dl.Sparse != nil {
		crc := updateI32(0, dl.Sparse.RowPtr)
		crc = crc32.Update(crc, castagnoli, dl.Sparse.Delta)
		crc = updateF32(crc, dl.Sparse.Val)
		return updateF32(crc, dl.Bias)
	}
	return DecodedChecksum(dl.Weights, dl.Bias)
}
