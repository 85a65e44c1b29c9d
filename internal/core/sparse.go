package core

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// This file carries the sparse-residency side of the serving fast path: a
// decoded layer whose density is low enough can live in the decode cache
// as CSR (~40 bits per nonzero) instead of dense float32 (~32 bits per
// slot), so a byte budget holds more layers while each hit's matmul runs
// over the nonzeros only. The conversion is lossless and the sparse
// kernels are bit-identical to the dense ones, so format is purely a
// residency decision.

// SparseThreshold is the decoded-layer density below which a layer is kept
// in CSR form — by serving engines at their default (serve's
// DefaultSparseThreshold is this constant) and by the assessment's test
// loop. 0.35 sits under the CSR kernels' measured speed break-even
// (~0.3–0.5 density on the fc SpMM), so the sparse path only engages where
// it is faster AND smaller; at the paper's ~10% densities it is ~3× faster
// and ~8× smaller than the dense form.
const SparseThreshold = 0.35

// matDims returns the 2-D matrix view of the layer's weight shape: rows =
// Shape[0], cols = the product of the remaining dimensions ([out, in] for
// fc; [outC, inC·k·k] for conv — the im2col layout).
func (dl *DecodedLayer) matDims() (rows, cols int) {
	if len(dl.Shape) == 0 {
		return 0, 0
	}
	rows, cols = dl.Shape[0], 1
	for _, d := range dl.Shape[1:] {
		cols *= d
	}
	return rows, cols
}

// ResidentBytes returns the layer's in-memory cost in its current form:
// the CSR arrays or the dense tensor, plus the bias. This is the unit the
// serve decode cache charges against its budget (DenseBytes reports the
// cost of the dense form regardless of residency).
func (dl *DecodedLayer) ResidentBytes() int64 {
	if dl.Sparse != nil {
		return dl.Sparse.Bytes() + 4*int64(len(dl.Bias))
	}
	return 4 * int64(len(dl.Weights)+len(dl.Bias))
}

// reconstruct turns the layer's decoded two-array form into the form it
// will be resident in, with one walk over (idx, data). The two-array form
// and CSR are the same relative-index encoding — deltas between surviving
// positions, 255-padding across long gaps — differing only in where the
// delta restarts (never vs. every row), so a layer whose density is below
// sparseBelow goes straight to CSR without a dense tensor ever existing:
// each surviving (pos, v) is appended to its row, element for element what
// tensor.CSRFromDense yields on the dense form. Otherwise (or when
// sparseBelow <= 0, or the weights are not matrix-shaped) the survivors are
// scattered into a zeroed dense tensor. For a layer carrying a decoded
// checksum, the same walk folds the dense byte order — zero runs, then
// each value — into the CRC, so a decode-path fault is caught in either
// form before anything is returned.
func (dl *DecodedLayer) reconstruct(l *LayerBlob, idx []uint8, data []float32, sparseBelow float64) error {
	n := l.WeightCount()
	nnz := 0
	for _, v := range data {
		if v != 0 {
			nnz++
		}
	}
	if n > 0 {
		// Positions strictly increase (zero deltas are rejected below), so
		// every nonzero value lands in its own slot: this is the dense
		// tensor's nonzero count without the tensor.
		dl.Density = float64(nnz) / float64(n)
	}
	rows, cols := dl.matDims()
	var csr *tensor.CSR
	var dense []float32
	if sparseBelow > 0 && len(dl.Shape) >= 2 && n > 0 && dl.Density < sparseBelow {
		// CSR never stores more entries than the two-array form: a row's
		// first gap is at most the global gap it replaces, and entries the
		// codec returned as exactly 0 are dropped.
		csr = &tensor.CSR{Rows: rows, Cols: cols, RowPtr: make([]int32, rows+1),
			Delta: make([]uint8, 0, len(data)), Val: make([]float32, 0, len(data))}
	} else {
		dense = make([]float32, n)
	}
	var crc crcWords
	pos, prev := -1, -1 // current position; last surviving position
	row, rowStart := 0, 0
	for i, d := range idx {
		if d == 0 {
			// prune.Encode never emits one; two entries on one slot would
			// make the dense and CSR forms disagree.
			return &CorruptError{Layer: l.Name, Kind: CorruptBlob,
				Detail: fmt.Sprintf("index: zero delta at entry %d", i)}
		}
		pos += int(d)
		v := data[i]
		if v == 0 {
			continue // padding entry
		}
		if pos >= n {
			return &CorruptError{Layer: l.Name, Kind: CorruptBlob,
				Detail: fmt.Sprintf("prune: index %d out of range [0,%d)", pos, n)}
		}
		if l.HasDecodedCRC {
			crc.zeros(pos - prev - 1)
			crc.word(math.Float32bits(v))
		}
		if csr == nil {
			dense[pos] = v
			prev = pos
			continue
		}
		gap := pos - prev
		for pos >= rowStart+cols {
			row++
			csr.RowPtr[row] = int32(len(csr.Val))
			rowStart += cols
			gap = pos - rowStart + 1 // the delta restarts at each row
		}
		for ; gap > 255; gap -= 255 {
			csr.Delta = append(csr.Delta, 255)
			csr.Val = append(csr.Val, 0)
		}
		csr.Delta = append(csr.Delta, uint8(gap))
		csr.Val = append(csr.Val, v)
		prev = pos
	}
	if l.HasDecodedCRC {
		crc.zeros(n - 1 - prev)
		if got := crc.f32s(l.Bias); got != l.DecodedCRC {
			return &CorruptError{Layer: l.Name, Kind: CorruptDecoded,
				Detail: fmt.Sprintf("decoded checksum %08x, stream says %08x", got, l.DecodedCRC)}
		}
	}
	if csr != nil {
		for row < rows {
			row++
			csr.RowPtr[row] = int32(len(csr.Val))
		}
	}
	dl.Weights, dl.Sparse = dense, csr
	return nil
}

// EstimatedDensity returns an upper bound on the layer's nonzero fraction
// computable without decoding: stored sparse entries (which include gap
// padding) over dense slots. Exact density becomes known once the layer
// is decoded.
func (l *LayerBlob) EstimatedDensity() float64 {
	n := l.WeightCount()
	if n == 0 {
		return 0
	}
	d := float64(l.IndexLen) / float64(n)
	if d > 1 {
		d = 1
	}
	return d
}
