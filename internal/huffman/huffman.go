// Package huffman implements a canonical Huffman coder over uint32 symbol
// streams. It is the entropy stage of the SZ compressor (quantization codes),
// of Deep Compression (cluster indices), and of the zstd-like lossless
// back-end.
//
// The encoded format is self-describing: a compact code-length table followed
// by the bit payload, so Decode needs no side information beyond the blob.
package huffman

import (
	"container/heap"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/bitstream"
)

// MaxCodeLen is the longest code length the canonical coder will emit. Codes
// longer than this (possible for very skewed inputs) are flattened by the
// standard depth-limiting pass.
const MaxCodeLen = 32

// ErrCorrupt is returned when a blob fails structural validation.
var ErrCorrupt = errors.New("huffman: corrupt stream")

type node struct {
	freq uint64
	sym  uint32
	// seq is a deterministic tie-breaker: leaves get their rank in symbol
	// order, merged nodes get the next counter value. Without it, equal
	// frequencies would be merged in map-iteration order and the emitted
	// code lengths — hence the encoded bytes — would differ between runs.
	seq         uint64
	left, right *node
}

type nodeHeap []*node

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	return h[i].seq < h[j].seq
}
func (h nodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)   { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// codeLengths builds Huffman code lengths for the given frequency map,
// limited to MaxCodeLen.
func codeLengths(freq map[uint32]uint64) map[uint32]uint8 {
	if len(freq) == 0 {
		return nil
	}
	if len(freq) == 1 {
		for s := range freq {
			return map[uint32]uint8{s: 1}
		}
	}
	syms := make([]uint32, 0, len(freq))
	for s := range freq {
		syms = append(syms, s)
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i] < syms[j] })
	h := make(nodeHeap, 0, len(freq))
	for i, s := range syms {
		h = append(h, &node{freq: freq[s], sym: s, seq: uint64(i)})
	}
	seq := uint64(len(syms))
	heap.Init(&h)
	for h.Len() > 1 {
		a := heap.Pop(&h).(*node)
		b := heap.Pop(&h).(*node)
		heap.Push(&h, &node{freq: a.freq + b.freq, seq: seq, left: a, right: b})
		seq++
	}
	root := h[0]
	lengths := make(map[uint32]uint8, len(freq))
	var walk func(n *node, depth uint8)
	walk = func(n *node, depth uint8) {
		if n.left == nil {
			d := depth
			if d == 0 {
				d = 1
			}
			lengths[n.sym] = d
			return
		}
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(root, 0)
	limitLengths(lengths)
	return lengths
}

// limitLengths caps code lengths at MaxCodeLen while keeping the Kraft sum
// exactly 1 (standard heuristic: demote overly long codes, then repair).
func limitLengths(lengths map[uint32]uint8) {
	over := false
	for _, l := range lengths {
		if l > MaxCodeLen {
			over = true
			break
		}
	}
	if !over {
		return
	}
	// Clamp, then fix the Kraft inequality by lengthening the shortest codes.
	type sl struct {
		sym uint32
		l   uint8
	}
	all := make([]sl, 0, len(lengths))
	for s, l := range lengths {
		if l > MaxCodeLen {
			l = MaxCodeLen
		}
		all = append(all, sl{s, l})
	}
	kraft := func() float64 {
		var k float64
		for _, e := range all {
			k += 1 / float64(uint64(1)<<e.l)
		}
		return k
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].l != all[j].l {
			return all[i].l < all[j].l
		}
		return all[i].sym < all[j].sym // deterministic victim selection
	})
	for i := 0; kraft() > 1 && i < len(all); {
		if all[i].l < MaxCodeLen {
			all[i].l++
		} else {
			i++
		}
	}
	for _, e := range all {
		lengths[e.sym] = e.l
	}
}

// canonicalCodes assigns canonical codes (sorted by (length, symbol)).
func canonicalCodes(lengths map[uint32]uint8) (syms []uint32, codes map[uint32]uint32) {
	syms = make([]uint32, 0, len(lengths))
	for s := range lengths {
		syms = append(syms, s)
	}
	sort.Slice(syms, func(i, j int) bool {
		li, lj := lengths[syms[i]], lengths[syms[j]]
		if li != lj {
			return li < lj
		}
		return syms[i] < syms[j]
	})
	codes = make(map[uint32]uint32, len(syms))
	var code uint32
	var prevLen uint8
	for _, s := range syms {
		l := lengths[s]
		code <<= (l - prevLen)
		codes[s] = code
		code++
		prevLen = l
	}
	return syms, codes
}

// Encode compresses data into a self-describing blob.
//
// Blob layout:
//
//	u32  symbol count n (number of encoded symbols)
//	u32  alphabet size m
//	m × (u32 symbol, u8 length)   code-length table
//	u32  payload byte length
//	payload bits (canonical codes, MSB-first)
func Encode(data []uint32) []byte {
	freq := make(map[uint32]uint64)
	for _, s := range data {
		freq[s]++
	}
	return encodeWith(data, codeLengths(freq))
}

// encodeWith writes data under the canonical code of the given lengths, which
// must cover every symbol in data.
func encodeWith(data []uint32, lengths map[uint32]uint8) []byte {
	syms, codes := canonicalCodes(lengths)

	w := bitstream.NewWriter()
	for _, s := range data {
		w.WriteBits(uint64(codes[s]), uint(lengths[s]))
	}
	payload := w.Bytes()

	out := make([]byte, 0, 8+len(syms)*5+4+len(payload))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(data)))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(syms)))
	for _, s := range syms {
		out = binary.LittleEndian.AppendUint32(out, s)
		out = append(out, lengths[s])
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = append(out, payload...)
	return out
}

// lutBits is the widest lookahead the single-level decode table resolves in
// one probe. SZ quantisation codes, byte alphabets and cluster indices put
// nearly all of their probability mass on codes this short; 2^11 entries
// (16 KB) stay in L1 beside the payload.
const lutBits = 11

// lutEntry resolves one lookahead pattern: the symbol whose code is a prefix
// of it and that code's length. len 0 marks a pattern no code of at most
// lutBits bits matches.
type lutEntry struct {
	sym uint32
	len uint8
}

// decodeTable is a canonical-Huffman decoding structure: for each code length
// it stores the first code value and the index of the first symbol of that
// length in the (length, symbol)-sorted symbol list, plus a lookup table over
// the next payload bits for the codes short enough to fit it.
type decodeTable struct {
	syms      []uint32
	firstCode [MaxCodeLen + 2]uint32
	firstSym  [MaxCodeLen + 2]int
	count     [MaxCodeLen + 2]int
	maxLen    uint8
	lut       [1 << lutBits]lutEntry
	lutShift  uint // 64 − min(maxLen, lutBits): buf>>lutShift indexes lut
}

// build fills the zero-valued t for the given length table.
func (t *decodeTable) build(syms []uint32, lengths []uint8) error {
	t.syms = syms
	for _, l := range lengths {
		if l == 0 || l > MaxCodeLen {
			return ErrCorrupt
		}
		t.count[l]++
		if l > t.maxLen {
			t.maxLen = l
		}
	}
	var code uint32
	idx := 0
	for l := uint8(1); l <= t.maxLen; l++ {
		t.firstCode[l] = code
		t.firstSym[l] = idx
		code = (code + uint32(t.count[l])) << 1
		idx += t.count[l]
	}
	// The table spans min(maxLen, lutBits) bits, so a small alphabet (a few
	// hundred weights of a conv layer) does not pay for 2^lutBits entries.
	// Fill it shortest code first and never overwrite, so on a forged
	// over-subscribed length table, where a short code is also the prefix
	// of a longer one, a probe answers what walk answers: the shortest
	// match.
	bits := uint(t.maxLen)
	if bits > lutBits {
		bits = lutBits
	}
	t.lutShift = 64 - bits
	for l := uint(1); l <= bits; l++ {
		for j := 0; j < t.count[l]; j++ {
			c := t.firstCode[l] + uint32(j)
			if c >= 1<<l {
				continue // forged table: not an l-bit value, no payload can match it
			}
			e := lutEntry{sym: syms[t.firstSym[l]+j], len: uint8(l)}
			for i := c << (bits - l); i < (c+1)<<(bits-l); i++ {
				if t.lut[i].len == 0 {
					t.lut[i] = e
				}
			}
		}
	}
	return nil
}

// walk resolves the code at the top of buf, of which the leading nbits are
// payload, by the canonical first-code comparison one length at a time. It
// serves what the lookup table cannot: codes longer than lutBits, and the
// payload's tail, where fewer bits remain than a probe assumes.
func (t *decodeTable) walk(buf uint64, nbits uint) (sym uint32, l uint, err error) {
	for l = 1; l <= uint(t.maxLen) && l <= nbits; l++ {
		d := uint32(buf>>(64-l)) - t.firstCode[l]
		if t.count[l] > 0 && d < uint32(t.count[l]) {
			return t.syms[t.firstSym[l]+int(d)], l, nil
		}
	}
	if nbits > uint(t.maxLen) {
		return 0, 0, fmt.Errorf("%w: code longer than table", ErrCorrupt)
	}
	return 0, 0, fmt.Errorf("%w: truncated payload", ErrCorrupt)
}

// readHeader validates a blob's framing and returns its symbol count and
// bit payload, after building the decoding structure for its length table
// into the zero-valued t (which the caller keeps on its stack: at 16 KB it
// would cost a small stream more to allocate than to decode). An empty
// stream (n = 0) carries no table worth building and leaves t untouched.
func readHeader(blob []byte, t *decodeTable) (n int, payload []byte, err error) {
	if len(blob) < 8 {
		return 0, nil, ErrCorrupt
	}
	count := binary.LittleEndian.Uint32(blob[0:4])
	m := binary.LittleEndian.Uint32(blob[4:8])
	off := 8
	if len(blob) < off+int(m)*5+4 {
		return 0, nil, ErrCorrupt
	}
	syms := make([]uint32, m)
	lengths := make([]uint8, m)
	for i := 0; i < int(m); i++ {
		syms[i] = binary.LittleEndian.Uint32(blob[off : off+4])
		lengths[i] = blob[off+4]
		off += 5
	}
	payloadLen := binary.LittleEndian.Uint32(blob[off : off+4])
	off += 4
	if len(blob) < off+int(payloadLen) {
		return 0, nil, ErrCorrupt
	}
	if count == 0 {
		return 0, nil, nil
	}
	if m == 0 {
		return 0, nil, ErrCorrupt
	}
	// Every symbol costs at least one payload bit; a count beyond that is a
	// forged header (and would otherwise drive a huge allocation).
	if uint64(count) > uint64(payloadLen)*8 {
		return 0, nil, fmt.Errorf("%w: symbol count %d exceeds payload capacity", ErrCorrupt, count)
	}
	if err := t.build(syms, lengths); err != nil {
		return 0, nil, err
	}
	return int(count), blob[off : off+int(payloadLen)], nil
}

// Decode reverses Encode.
func Decode(blob []byte) ([]uint32, error) {
	var table decodeTable
	n, payload, err := readHeader(blob, &table)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return []uint32{}, nil
	}
	// n is attacker-controlled (bounded only by payloadLen*8, and callers
	// like the LZ stage can present large payloads); cap the preallocation
	// and let append grow toward the real symbol count.
	prealloc := n
	if prealloc > 1<<20 {
		prealloc = 1 << 20
	}
	out := make([]uint32, 0, prealloc)
	// buf holds the next payload bits MSB-first from bit 63 down; nbits of
	// them are counted as loaded, and pos is the first payload byte not yet
	// counted. Below the counted bits buf is zero or, after an 8-byte load,
	// a preview of payload[pos], which the next load ORs over itself.
	var buf uint64
	var nbits uint
	pos := 0
	shift := table.lutShift & 63
	for len(out) < n {
		if nbits < MaxCodeLen+1 {
			if pos+8 <= len(payload) {
				buf |= binary.BigEndian.Uint64(payload[pos:]) >> nbits
				pos += int(63-nbits) >> 3
				nbits |= 56
			} else {
				for ; nbits <= 56 && pos < len(payload); pos++ {
					buf |= uint64(payload[pos]) << (56 - nbits)
					nbits += 8
				}
			}
		}
		e := table.lut[(buf>>shift)&(1<<lutBits-1)]
		sym, l := e.sym, uint(e.len)
		if l == 0 || l > nbits {
			// Still under MaxCodeLen+1 bits after a refill means the
			// payload is exhausted, so walk sees exactly what remains.
			if sym, l, err = table.walk(buf, nbits); err != nil {
				return nil, err
			}
		}
		out = append(out, sym)
		buf <<= l
		nbits -= l
	}
	return out, nil
}

// EstimateBits returns the entropy-coded size in bits of data under its own
// Huffman code (table overhead excluded). Useful for predictor selection.
func EstimateBits(data []uint32) int {
	freq := make(map[uint32]uint64)
	for _, s := range data {
		freq[s]++
	}
	lengths := codeLengths(freq)
	bits := 0
	for s, f := range freq {
		bits += int(f) * int(lengths[s])
	}
	return bits
}
