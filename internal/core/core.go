// Package core implements the DeepSZ framework itself — the paper's primary
// contribution. The four steps (§3.1):
//
//  1. network pruning — performed by package prune; core consumes a
//     pruned, mask-retrained network,
//  2. error bound assessment (Algorithm 1) — Assess sweeps per-layer error
//     bounds, measuring inference-accuracy degradation with exactly one
//     layer reconstructed at a time,
//  3. optimization of the error bound configuration (Algorithm 2) —
//     Optimize runs the knapsack-style dynamic program that picks each
//     layer's bound to minimise total compressed size under the user's
//     expected accuracy loss (or, in expected-ratio mode, to minimise
//     accuracy loss under a size target), and
//  4. generation of the compressed model — Generate emits the container
//     (SZ-compressed data arrays + best-fit losslessly compressed index
//     arrays) that Decode later reverses.
package core

import (
	"fmt"
	"runtime"

	"repro/internal/codec"
	"repro/internal/nn"
)

// Mode selects the optimisation objective (§3.4).
type OptimizeMode uint8

const (
	// ExpectedAccuracy minimises compressed size subject to a bound on the
	// total accuracy loss (the paper's default mode).
	ExpectedAccuracy OptimizeMode = iota
	// ExpectedRatio minimises accuracy loss subject to a compressed-size
	// target derived from Config.TargetRatio.
	ExpectedRatio
)

// LayerSelection picks which weighted layers the pipeline compresses.
type LayerSelection uint8

const (
	// LayersFC compresses fully connected layers only — the paper's scope,
	// and the default (fc weights dominate storage in AlexNet/VGG-era
	// models).
	LayersFC LayerSelection = iota
	// LayersAll compresses every weighted layer, convolutions included —
	// the whole-network generalisation for conv-heavy architectures.
	LayersAll
)

// String returns "fc" or "all".
func (s LayerSelection) String() string {
	if s == LayersAll {
		return "all"
	}
	return "fc"
}

// selects reports whether the selection covers the given layer kind.
func (s LayerSelection) selects(k nn.LayerKind) bool {
	return s == LayersAll || k == nn.KindDense
}

// selectLayers returns net's compressible layers covered by the selection,
// in network order.
func selectLayers(net *nn.Network, sel LayerSelection) []nn.Compressible {
	var out []nn.Compressible
	for _, c := range net.CompressibleLayers() {
		if sel.selects(c.Kind()) {
			out = append(out, c)
		}
	}
	return out
}

// Config controls the DeepSZ pipeline.
type Config struct {
	// Mode selects expected-accuracy (default) or expected-ratio operation.
	Mode OptimizeMode

	// Layers selects the compressed layer set: LayersFC (default,
	// paper-faithful) or LayersAll (every weighted layer, conv included).
	Layers LayerSelection

	// ExpectedAccuracyLoss is ϵ*, the user's acceptable top-1 accuracy loss
	// as a fraction (the paper uses 0.002–0.004 on 50 k-image test sets;
	// scaled experiments use larger values matching their test resolution).
	ExpectedAccuracyLoss float64

	// TargetRatio is the desired overall fc compression ratio for
	// ExpectedRatio mode (original fc bytes ÷ compressed bytes).
	TargetRatio float64

	// DistortionCriterion is the degradation (fraction) beyond which a
	// reconstructed network counts as distorted during the coarse sweep;
	// the paper uses 0.001 (0.1 %).
	DistortionCriterion float64

	// StartErrorBound is the first coarse bound tested (paper default 1e-3,
	// can be lowered to 1e-4 per §3.3).
	StartErrorBound float64

	// MaxErrorBound caps the sweep. §3.4 requires eb < 0.1 so ∆W ≪ W and
	// the linear accuracy-loss model holds; the default cap is 0.1.
	MaxErrorBound float64

	// TestBatch is the evaluation batch size (default 100).
	TestBatch int

	// Workers bounds assessment and generation parallelism (default
	// GOMAXPROCS): assessment workers each sweep one layer at a time over
	// shared read-only state, mirroring the paper's embarrassingly parallel
	// multi-GPU testing, while generation workers compress whole layers
	// independently. Decoding is bounded separately: Model.DecodeWith
	// takes an explicit worker count (Decode uses GOMAXPROCS).
	Workers int

	// Codec selects the lossy back-end for data arrays (0 = codec.IDSZ,
	// the paper's choice). Assessment, optimisation, and generation all use
	// it, so the plan's sizes match the emitted model.
	Codec codec.ID

	// CodecBits is the deepcomp codec's codebook width (0 = 5).
	CodecBits int

	// SZBlockSize / SZRadius tune the SZ compressor (0 = defaults).
	SZBlockSize int
	SZRadius    int

	// DecodedChecksums selects which layers additionally carry a checksum
	// over their decoded dense bytes in the v4 stream (blob CRCs are
	// always present). Default ChecksumCritical: layers whose measured
	// sensitivity reaches CriticalSensitivity.
	DecodedChecksums DecodedChecksumMode

	// CriticalSensitivity is the accuracy-degradation threshold (fraction)
	// above which a layer counts as critical for ChecksumCritical mode
	// (0 = 0.001, matching the paper's distortion criterion: a layer that
	// can distort the network is a layer whose decode must be right).
	CriticalSensitivity float64
}

// DecodedChecksumMode selects decoded-checksum coverage for Generate.
type DecodedChecksumMode uint8

const (
	// ChecksumCritical (default) covers layers whose assessed sensitivity
	// reaches Config.CriticalSensitivity — protection strength follows
	// measured criticality.
	ChecksumCritical DecodedChecksumMode = iota
	// ChecksumAll covers every layer.
	ChecksumAll
	// ChecksumOff emits blob CRCs only.
	ChecksumOff
)

// wantDecodedChecksum reports whether a layer with the given plan choice
// gets a decoded checksum under the configured mode.
func (c *Config) wantDecodedChecksum(ch Choice) bool {
	switch c.DecodedChecksums {
	case ChecksumAll:
		return true
	case ChecksumOff:
		return false
	}
	return ch.Sensitivity >= c.CriticalSensitivity
}

// codecOptions bundles the per-call codec tuning for an error bound.
func (c *Config) codecOptions(eb float64) codec.Options {
	return codec.Options{
		ErrorBound: eb,
		BlockSize:  c.SZBlockSize,
		Radius:     c.SZRadius,
		Bits:       c.CodecBits,
	}
}

func (c *Config) fill() error {
	if c.ExpectedAccuracyLoss <= 0 && c.Mode == ExpectedAccuracy {
		return fmt.Errorf("core: ExpectedAccuracyLoss must be positive, got %v", c.ExpectedAccuracyLoss)
	}
	if c.Mode == ExpectedRatio && c.TargetRatio <= 1 {
		return fmt.Errorf("core: TargetRatio must exceed 1, got %v", c.TargetRatio)
	}
	if c.ExpectedAccuracyLoss <= 0 {
		// Expected-ratio mode still needs a budget scale for assessment
		// termination; default to 2 % (the linearity regime of §3.4).
		c.ExpectedAccuracyLoss = 0.02
	}
	if c.DistortionCriterion <= 0 {
		c.DistortionCriterion = 0.001
	}
	if c.StartErrorBound <= 0 {
		c.StartErrorBound = 1e-3
	}
	if c.MaxErrorBound <= 0 {
		c.MaxErrorBound = 0.1
	}
	if c.TestBatch <= 0 {
		c.TestBatch = 100
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Codec == 0 {
		c.Codec = codec.IDSZ
	}
	if _, err := codec.ByID(c.Codec); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if c.CodecBits < 0 || c.CodecBits > 16 {
		return fmt.Errorf("core: CodecBits %d out of [0,16]", c.CodecBits)
	}
	if c.CriticalSensitivity <= 0 {
		c.CriticalSensitivity = 0.001
	}
	return nil
}
