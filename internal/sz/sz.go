// Package sz is a from-scratch Go implementation of the SZ error-bounded
// lossy compressor (Di & Cappello IPDPS'16; Tao et al. IPDPS'17; Liang et
// al. 2018) specialised for the 1-D float32 arrays DeepSZ compresses.
//
// The pipeline follows the papers:
//
//  1. blockwise adaptive prediction — each block chooses between a Lorenzo
//     predictor (previous reconstructed value) and a linear-regression
//     predictor (best-fit line over the block),
//  2. error-controlled linear-scaling quantization of the residuals
//     (package quant), with an escape code for unpredictable points,
//  3. customized Huffman coding of the quantization codes, and
//  4. an optional lossless stage (zstd-like) over the entire payload.
//
// The central invariant — every reconstructed value is within the absolute
// error bound of the original — is enforced by construction and checked by
// property tests.
package sz

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/huffman"
	"repro/internal/lossless"
	"repro/internal/quant"
)

// Mode selects how Options.ErrorBound is interpreted.
type Mode uint8

const (
	// ModeAbs interprets ErrorBound as an absolute error bound.
	ModeAbs Mode = iota
	// ModeRel interprets ErrorBound as a fraction of the data's value range
	// (value-range-relative error bound, SZ's REL mode).
	ModeRel
	// ModePSNR interprets ErrorBound as a target peak signal-to-noise ratio
	// in dB; the absolute bound is derived from the value range.
	ModePSNR
)

// Options configures compression.
type Options struct {
	// Mode selects the error-control mode. Default is ModeAbs.
	Mode Mode
	// ErrorBound is the absolute bound (ModeAbs), the range fraction
	// (ModeRel), or the target PSNR in dB (ModePSNR). Must be positive.
	ErrorBound float64
	// BlockSize is the prediction block length; 0 selects the default (128).
	BlockSize int
	// Radius is the quantization interval radius; 0 selects the default
	// (32768, SZ's 65536-interval capacity).
	Radius int
	// DisableLossless skips the final lossless stage. The stage is on by
	// default, matching SZ's Zstd post-pass.
	DisableLossless bool
	// DisableRegression forces Lorenzo-only prediction (ablation hook).
	DisableRegression bool
	// DisableLorenzo forces regression-only prediction (ablation hook).
	DisableLorenzo bool
}

const (
	defaultBlockSize = 128
	defaultRadius    = 32768
	magic            = 0x535A474F // "SZGO"
	version          = 1
)

// ErrCorrupt is returned for structurally invalid blobs.
var ErrCorrupt = errors.New("sz: corrupt stream")

func (o *Options) fill() error {
	if o.ErrorBound <= 0 {
		return fmt.Errorf("sz: error bound must be positive, got %v", o.ErrorBound)
	}
	if o.BlockSize == 0 {
		o.BlockSize = defaultBlockSize
	}
	if o.BlockSize < 4 {
		return fmt.Errorf("sz: block size %d too small", o.BlockSize)
	}
	if o.Radius == 0 {
		o.Radius = defaultRadius
	}
	if o.Radius < 2 {
		return fmt.Errorf("sz: radius %d too small", o.Radius)
	}
	if o.DisableRegression && o.DisableLorenzo {
		return errors.New("sz: cannot disable both predictors")
	}
	return nil
}

// AbsBound resolves the absolute error bound the options imply for data.
func AbsBound(data []float32, opts Options) float64 {
	switch opts.Mode {
	case ModeRel:
		lo, hi := minMax(data)
		r := float64(hi) - float64(lo)
		if r == 0 {
			r = 1
		}
		return opts.ErrorBound * r
	case ModePSNR:
		lo, hi := minMax(data)
		r := float64(hi) - float64(lo)
		if r == 0 {
			r = 1
		}
		// Uniform quantization with bound eb has RMSE ≈ eb/√3, so a target
		// PSNR = 20·log10(range/RMSE) gives eb = range·√3·10^(−PSNR/20).
		return r * math.Sqrt(3) * math.Pow(10, -opts.ErrorBound/20)
	default:
		return opts.ErrorBound
	}
}

func minMax(data []float32) (float32, float32) {
	if len(data) == 0 {
		return 0, 0
	}
	lo, hi := data[0], data[0]
	for _, v := range data[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// predictor ids stored per block.
const (
	predLorenzo = 0
	predRegress = 1
)

// Compress encodes data under opts. The returned blob is self-describing.
func Compress(data []float32, opts Options) ([]byte, error) {
	if err := (&opts).fill(); err != nil {
		return nil, err
	}
	eb := AbsBound(data, opts)
	q := quant.New(eb, opts.Radius)
	n := len(data)
	bs := opts.BlockSize
	nBlocks := (n + bs - 1) / bs

	codes := make([]uint32, 0, n)
	var escapes []float32
	predFlags := make([]byte, nBlocks)
	var coeffs []float32 // two float32 per regression block

	prev := 0.0 // last reconstructed value (Lorenzo predictor state)

	for b := 0; b < nBlocks; b++ {
		lo := b * bs
		hi := lo + bs
		if hi > n {
			hi = n
		}
		block := data[lo:hi]
		usesReg := false
		var a0, a1 float64
		if !opts.DisableRegression {
			a0, a1 = fitLine(block)
			if opts.DisableLorenzo {
				usesReg = true
			} else {
				usesReg = regressionWins(block, prev, a0, a1, eb)
			}
		}
		if usesReg {
			predFlags[b] = predRegress
			// Store coefficients as float32; prediction must use the
			// *stored* precision so encoder and decoder agree.
			c0, c1 := float32(a0), float32(a1)
			coeffs = append(coeffs, c0, c1)
			for i, v := range block {
				pred := float64(c0) + float64(c1)*float64(i)
				code, r, ok := q.Encode(sanitize(float64(v)), pred)
				if !ok {
					codes = append(codes, 0)
					escapes = append(escapes, v)
					r = float64(v)
				} else {
					codes = append(codes, code)
				}
				prev = r
			}
		} else {
			predFlags[b] = predLorenzo
			for _, v := range block {
				code, r, ok := q.Encode(sanitize(float64(v)), prev)
				if !ok {
					codes = append(codes, 0)
					escapes = append(escapes, v)
					r = float64(v)
				} else {
					codes = append(codes, code)
				}
				prev = r
			}
		}
	}

	// ---- serialize ----
	payload := make([]byte, 0, n/2)
	payload = append(payload, packBits(predFlags)...)
	for _, c := range coeffs {
		payload = binary.LittleEndian.AppendUint32(payload, math.Float32bits(c))
	}
	hblob := huffman.Encode(codes)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(hblob)))
	payload = append(payload, hblob...)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(escapes)))
	for _, e := range escapes {
		payload = binary.LittleEndian.AppendUint32(payload, math.Float32bits(e))
	}

	llFlag := byte(0)
	if !opts.DisableLossless {
		comp := lossless.ZstdLike{}
		cp := comp.Compress(payload)
		if len(cp) < len(payload) {
			payload = cp
			llFlag = byte(comp.ID())
		}
	}

	out := make([]byte, 0, 32+len(payload))
	out = binary.LittleEndian.AppendUint32(out, magic)
	out = append(out, version, llFlag, byte(opts.Mode), 0)
	out = binary.LittleEndian.AppendUint64(out, uint64(n))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(eb))
	out = binary.LittleEndian.AppendUint32(out, uint32(bs))
	out = binary.LittleEndian.AppendUint32(out, uint32(opts.Radius))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	return append(out, payload...), nil
}

// sanitize maps NaN/Inf to 0 so quantization arithmetic stays defined; DNN
// weights never contain them, but the compressor must not misbehave.
func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// fitLine least-squares fits v[i] ≈ a0 + a1·i over the block.
func fitLine(block []float32) (a0, a1 float64) {
	n := float64(len(block))
	if len(block) == 1 {
		return float64(block[0]), 0
	}
	var sx, sy, sxx, sxy float64
	for i, v := range block {
		x := float64(i)
		y := sanitize(float64(v))
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return sy / n, 0
	}
	a1 = (n*sxy - sx*sy) / den
	a0 = (sy - a1*sx) / n
	return a0, a1
}

// regressionWins estimates the entropy-coded cost of both predictors on the
// block (the SZ selection idea: pick the predictor whose quantization codes
// are cheapest) and reports whether regression is expected to win after
// paying its 64-bit coefficient overhead.
func regressionWins(block []float32, prev float64, a0, a1, eb float64) bool {
	step := 2 * eb
	lorenzoHist := make(map[int]int, 8)
	regressHist := make(map[int]int, 8)
	p := prev
	for i, v := range block {
		y := sanitize(float64(v))
		lorenzoHist[quantIndex(y-p, step)]++
		p = y // proxy: assume near-perfect reconstruction
		regressHist[quantIndex(y-(a0+a1*float64(i)), step)]++
	}
	n := float64(len(block))
	lorenzoBits := entropyBits(lorenzoHist, n)
	regressBits := entropyBits(regressHist, n) + 64 // two float32 coefficients
	return regressBits < lorenzoBits
}

func quantIndex(diff, step float64) int {
	if diff >= 0 {
		return int(diff/step + 0.5)
	}
	return -int(-diff/step + 0.5)
}

// entropyBits returns the expected coded size in bits: n·H(hist), floored at
// one bit per symbol because the Huffman stage cannot emit shorter codes.
// The sum runs in sorted-key order: float addition is not associative, so
// map-iteration order could otherwise flip a predictor choice between runs
// when the two costs are within rounding distance.
func entropyBits(hist map[int]int, n float64) float64 {
	keys := make([]int, 0, len(hist))
	for k := range hist {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var h float64
	for _, k := range keys {
		p := float64(hist[k]) / n
		h -= p * math.Log2(p)
	}
	if h < 1 {
		h = 1
	}
	return n * h
}

func packBits(flags []byte) []byte {
	out := make([]byte, (len(flags)+7)/8)
	for i, f := range flags {
		if f != 0 {
			out[i/8] |= 1 << (7 - i%8)
		}
	}
	return out
}

func unpackBits(b []byte, n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		if b[i/8]&(1<<(7-i%8)) != 0 {
			out[i] = 1
		}
	}
	return out
}

// Decompress reverses Compress.
func Decompress(blob []byte) ([]float32, error) {
	if len(blob) < 36 { // the fixed header, payload length included
		return nil, ErrCorrupt
	}
	if binary.LittleEndian.Uint32(blob[0:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if blob[4] != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, blob[4])
	}
	llFlag := blob[5]
	n := int(binary.LittleEndian.Uint64(blob[8:16]))
	eb := math.Float64frombits(binary.LittleEndian.Uint64(blob[16:24]))
	bs := int(binary.LittleEndian.Uint32(blob[24:28]))
	radius := int(binary.LittleEndian.Uint32(blob[28:32]))
	payloadLen := int(binary.LittleEndian.Uint32(blob[32:36]))
	if len(blob) < 36+payloadLen {
		return nil, fmt.Errorf("%w: truncated payload", ErrCorrupt)
	}
	payload := blob[36 : 36+payloadLen]
	if llFlag != 0 {
		c, err := lossless.ByID(lossless.ID(llFlag))
		if err != nil {
			return nil, err
		}
		payload, err = c.Decompress(payload)
		if err != nil {
			return nil, fmt.Errorf("sz: lossless stage: %w", err)
		}
	}
	if n == 0 {
		return []float32{}, nil
	}
	if bs < 1 || radius < 2 || eb <= 0 {
		return nil, fmt.Errorf("%w: bad header fields", ErrCorrupt)
	}
	// Each value costs at least one Huffman bit; forged counts beyond the
	// payload capacity are rejected before any allocation sized by n.
	if uint64(n) > uint64(len(payload))*8 {
		return nil, fmt.Errorf("%w: value count %d exceeds payload capacity", ErrCorrupt, n)
	}

	nBlocks := (n + bs - 1) / bs
	flagBytes := (nBlocks + 7) / 8
	if len(payload) < flagBytes {
		return nil, ErrCorrupt
	}
	predFlags := unpackBits(payload[:flagBytes], nBlocks)
	off := flagBytes
	nReg := 0
	for _, f := range predFlags {
		if f == predRegress {
			nReg++
		}
	}
	if len(payload) < off+nReg*8+4 {
		return nil, ErrCorrupt
	}
	coeffs := make([]float32, 2*nReg)
	for i := range coeffs {
		coeffs[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[off : off+4]))
		off += 4
	}
	hLen := int(binary.LittleEndian.Uint32(payload[off : off+4]))
	off += 4
	if len(payload) < off+hLen+4 {
		return nil, ErrCorrupt
	}
	codes, err := huffman.Decode(payload[off : off+hLen])
	if err != nil {
		return nil, fmt.Errorf("sz: %w", err)
	}
	off += hLen
	nEsc := int(binary.LittleEndian.Uint32(payload[off : off+4]))
	off += 4
	if len(payload) < off+nEsc*4 {
		return nil, ErrCorrupt
	}
	escapes := make([]float32, nEsc)
	for i := range escapes {
		escapes[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[off : off+4]))
		off += 4
	}
	if len(codes) != n {
		return nil, fmt.Errorf("%w: %d codes for %d values", ErrCorrupt, len(codes), n)
	}

	q := quant.New(eb, radius)
	out := make([]float32, n)
	prev := 0.0
	escIdx, regIdx, ci := 0, 0, 0
	for b := 0; b < nBlocks; b++ {
		lo := b * bs
		hi := lo + bs
		if hi > n {
			hi = n
		}
		if predFlags[b] == predRegress {
			c0 := float64(coeffs[2*regIdx])
			c1 := float64(coeffs[2*regIdx+1])
			regIdx++
			for i := lo; i < hi; i++ {
				pred := c0 + c1*float64(i-lo)
				var r float64
				if quant.IsEscape(codes[ci]) {
					if escIdx >= nEsc {
						return nil, fmt.Errorf("%w: escape underflow", ErrCorrupt)
					}
					r = float64(escapes[escIdx])
					escIdx++
				} else {
					r = q.Decode(codes[ci], pred)
				}
				out[i] = float32(r)
				prev = r
				ci++
			}
		} else {
			for i := lo; i < hi; i++ {
				var r float64
				if quant.IsEscape(codes[ci]) {
					if escIdx >= nEsc {
						return nil, fmt.Errorf("%w: escape underflow", ErrCorrupt)
					}
					r = float64(escapes[escIdx])
					escIdx++
				} else {
					r = q.Decode(codes[ci], prev)
				}
				out[i] = float32(r)
				prev = r
				ci++
			}
		}
	}
	return out, nil
}

// Ratio returns the compression ratio achieved by blob for n float32 values.
func Ratio(n int, blob []byte) float64 {
	if len(blob) == 0 {
		return 0
	}
	return float64(4*n) / float64(len(blob))
}
