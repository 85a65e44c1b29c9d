package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// offlineResult is what the compression half of a run measured.
type offlineResult struct {
	EncodePassS []float64   // per pass: Σ wall time of `deepsz encode` over the nets
	DecodeMs    []float64   // per iteration: core.Unmarshal + Model.Decode of paper_fc
	DenseBytes  int64       // Σ dense bytes of the compressed layers over the nets
	DSZBytes    int64       // Σ .dsz file bytes over the nets
	DecodedTop1 float64     // mean top-1 (fraction) of the decoded nets
	MaxLossPP   float64     // max over nets of top-1(pruned) − top-1(decoded), percentage points
	Bound       boundReport // worst |w − ŵ| ÷ eb and disturbed zeros over every checked layer
	Attempted   int         // CLI calls and verifications; each failure is one entry of Problems
	PaperFC     *nn.Network // the synthetic stack decode is timed on
	PaperFCBlob []byte      // its compressed stream
	PaperFCS    float64     // time spent making the two (set-up, not measured work)
	Problems    []string
}

func (r *offlineResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func dszPath(runDir, net string) string { return filepath.Join(runDir, net+".dsz") }

// decodeIterations is how many decodes of paper_fc a run times.
const decodeIterations = 20

// maxEncodePasses caps the encode passes of one run.
const maxEncodePasses = 8

// runOffline encodes the workload's nets with the CLI — at least minPasses
// passes and for at least encodeFor, so a one-net workload whose pass takes
// under a second gets as steady a median as the four-net one — decodes the
// result with the CLI, and verifies it against the pruned nets: error bound,
// zeros, accuracy. Then it generates paper_fc and times in-process decodes
// of it.
func runOffline(ctx context.Context, e *env, w workload, runDir string, minPasses int, encodeFor time.Duration, seed uint64) (*offlineResult, error) {
	r := &offlineResult{}
	deepsz := e.tool("deepsz")
	started := time.Now()
	for p := 0; p < maxEncodePasses && (p < minPasses || time.Since(started) < encodeFor); p++ {
		var pass time.Duration
		for _, net := range w.Nets {
			r.Attempted++
			d, err := runTool(ctx, deepsz, "encode", "-net", net, "-in", e.pruned(net), "-out", dszPath(runDir, net))
			if err != nil {
				// Nothing downstream can run without the .dsz.
				return nil, err
			}
			pass += d
		}
		r.EncodePassS = append(r.EncodePassS, pass.Seconds())
	}

	for _, net := range w.Nets {
		decodedPath := filepath.Join(runDir, net+".decoded")
		r.Attempted++
		if _, err := runTool(ctx, deepsz, "decode", "-net", net, "-model", dszPath(runDir, net), "-in", e.pruned(net), "-out", decodedPath); err != nil {
			r.problem("%v", err)
			continue
		}
		r.Attempted++
		if err := r.verifyNet(e, net, dszPath(runDir, net), decodedPath); err != nil {
			r.problem("%s: %v", net, err)
		}
	}
	r.DecodedTop1 /= float64(len(w.Nets))

	t0 := time.Now()
	if err := r.buildPaperFC(seed); err != nil {
		return nil, err
	}
	r.PaperFCS = time.Since(t0).Seconds()
	r.Attempted++
	for i := 0; i < decodeIterations; i++ {
		t0 := time.Now()
		m, err := core.Unmarshal(r.PaperFCBlob)
		if err == nil {
			_, _, err = m.Decode()
		}
		if err != nil {
			r.problem("paper_fc: %v", err)
			break
		}
		r.DecodeMs = append(r.DecodeMs, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return r, nil
}

// verifyNet checks one net's CLI round trip and folds its sizes and
// accuracy into the result.
func (r *offlineResult) verifyNet(e *env, net, dsz, decodedPath string) error {
	m, err := core.ReadModel(dsz)
	if err != nil {
		return err
	}
	info, err := os.Stat(dsz)
	if err != nil {
		return err
	}
	r.DSZBytes += info.Size()
	for i := range m.Layers {
		r.DenseBytes += 4 * int64(m.Layers[i].WeightCount())
	}
	pruned, err := loadNet(net, e.pruned(net))
	if err != nil {
		return err
	}
	decoded, err := loadNet(net, decodedPath)
	if err != nil {
		return err
	}
	rep, err := checkDecodedNet(pruned, decoded, m)
	r.Bound.merge(rep)
	if err != nil {
		return err
	}
	acc, err := top1(decoded, net)
	if err != nil {
		return err
	}
	r.DecodedTop1 += acc
	loss := 100 * (e.meta.PrunedTop1[net] - acc)
	r.MaxLossPP = math.Max(r.MaxLossPP, loss)
	if loss > maxAccuracyLossPP {
		return fmt.Errorf("top-1 fell %.2f pp (pruned %.2f%% → decoded %.2f%%), ceiling %.1f pp",
			loss, 100*e.meta.PrunedTop1[net], 100*acc, maxAccuracyLossPP)
	}
	return nil
}

// paperFCEB is the error bound paper_fc is generated at.
const paperFCEB = 1e-2

// paperFCLayers is the paper_fc stack: AlexNet's fc6–fc8 at a quarter of the
// linear scale, at the paper's pruning densities. 38 MB dense.
var paperFCLayers = []struct {
	name    string
	in, out int
	density float64
}{
	{"fc6", 4096, 2048, 0.09},
	{"fc7", 2048, 512, 0.09},
	{"fc8", 512, 100, 0.25},
}

// newPaperFC builds the synthetic pruned stack directly: each layer keeps its
// seeded He initialisation, N(0, σ), except that weights below the magnitude
// that keeps `density` of a normal distribution are zeroed — what magnitude
// pruning leaves, without prune.Network's ~5 s at this size. The zoo layers
// are too small for decode time to rise above timer and scheduler noise
// (lenet-300-100 decodes in ~1 ms, ±15 % run to run); this is the size at
// which it can be measured.
func newPaperFC(seed uint64) *nn.Network {
	rng := tensor.NewRNG(seed ^ 0x70617065725f6663) // "paper_fc"
	var layers []nn.Layer
	for i, l := range paperFCLayers {
		d := nn.NewDense(l.name, l.in, l.out, rng)
		// P(|w| ≥ cut) = density for w ~ N(0, σ), σ = √(2/in).
		cut := float32(math.Sqrt2 * math.Erfinv(1-l.density) * math.Sqrt(2/float64(l.in)))
		for j, v := range d.W.W.Data {
			if -cut < v && v < cut {
				d.W.W.Data[j] = 0
			}
		}
		layers = append(layers, d)
		if i < len(paperFCLayers)-1 {
			layers = append(layers, nn.NewReLU("relu"+l.name[2:]))
		}
	}
	return nn.NewNetwork("paper_fc", layers...)
}

// buildPaperFC generates paper_fc's stream with the default codec and
// verifies one decode of it against the weights it was made from.
func (r *offlineResult) buildPaperFC(seed uint64) error {
	r.PaperFC = newPaperFC(seed)
	plan := &core.Plan{}
	for _, l := range paperFCLayers {
		plan.Choices = append(plan.Choices, core.Choice{Layer: l.name, EB: paperFCEB, Codec: codec.IDSZ})
	}
	m, err := core.Generate(r.PaperFC, plan, core.Config{ExpectedAccuracyLoss: 0.02})
	if err != nil {
		return fmt.Errorf("paper_fc: %w", err)
	}
	r.PaperFCBlob = m.Marshal()
	decoded, _, err := m.Decode()
	if err != nil {
		return fmt.Errorf("paper_fc: %w", err)
	}
	for _, dl := range decoded {
		r.Attempted++
		rep, err := checkBound(r.PaperFC.CompressibleByName(dl.Name).Weights(), dl.Weights, paperFCEB)
		if err == nil {
			err = rep.err(dl.Name)
		}
		r.Bound.merge(rep)
		if err != nil {
			r.problem("paper_fc: %v", err)
		}
	}
	return nil
}
