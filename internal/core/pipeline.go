package core

import (
	"math"
	"time"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/prune"
	"repro/internal/tensor"
)

// Result bundles the outputs of a full DeepSZ encoding run.
type Result struct {
	Assessment *Assessment
	Plan       *Plan
	Model      *Model

	// Before/After are top-1/top-5 accuracies of the pruned network and of
	// the network reconstructed from the compressed model.
	Before, After nn.Accuracy

	// OriginalBytes is the dense float32 storage of every compressed layer
	// (fc only by default, fc+conv under LayersAll).
	OriginalBytes int64
	// OriginalBytesPerKind splits OriginalBytes by layer kind ("fc",
	// "conv"), so whole-network runs can report where the bytes came from.
	OriginalBytesPerKind map[string]int64
	// CSRBytes is the two-array sparse size after pruning (the paper's
	// "CSR size" column).
	CSRBytes int
	// CompressedBytes is the final DeepSZ size (the "DeepSZ Compressed"
	// column).
	CompressedBytes int
	// CompressedBytesPerKind splits CompressedBytes by layer kind.
	CompressedBytesPerKind map[string]int

	// EncodeTime covers steps 2–4 (assessment, optimisation, generation),
	// matching the paper's encoding-time measurements, which exclude the
	// pruning step shared by all methods.
	EncodeTime time.Duration
	// AssessTime, OptimizeTime and GenerateTime split EncodeTime by step;
	// VerifyTime is the end-to-end check behind After, which it excludes.
	AssessTime, OptimizeTime, GenerateTime, VerifyTime time.Duration
}

// PruningRatio returns original ÷ CSR size.
func (r *Result) PruningRatio() float64 {
	return float64(r.OriginalBytes) / float64(r.CSRBytes)
}

// CompressionRatio returns original ÷ compressed size, the headline number
// of Tables 2–4.
func (r *Result) CompressionRatio() float64 {
	return float64(r.OriginalBytes) / float64(r.CompressedBytes)
}

// BitsPerWeight returns compressed bits per nonzero (pruned) weight, the
// paper's "2.0–3.3 bits per pruned weight" metric.
func (r *Result) BitsPerWeight() float64 {
	nz := 0
	for _, la := range r.Assessment.Layers {
		nz += la.Sparse.Nonzeros()
	}
	if nz == 0 {
		return 0
	}
	return float64(8*r.CompressedBytes) / float64(nz)
}

// PredictedVsActualGap returns |Σ∆ℓ − actual loss|, the linearity-model
// error the paper's Figure 6 studies.
func (r *Result) PredictedVsActualGap() float64 {
	actual := r.Before.Top1 - r.After.Top1
	if actual < 0 {
		actual = 0
	}
	return math.Abs(r.Plan.PredictedLoss - actual)
}

// Encode runs DeepSZ steps 2–4 on a pruned, mask-retrained network:
// assessment (Algorithm 1), error-bound optimisation (Algorithm 2), and
// compressed-model generation. The returned Result includes the accuracy of
// the network reconstructed from the emitted model, verified end to end.
func Encode(net *nn.Network, test *dataset.Set, cfg Config) (*Result, error) {
	if err := (&cfg).fill(); err != nil {
		return nil, err
	}
	start := time.Now()
	assessment, features, err := assess(net, test, cfg)
	if err != nil {
		return nil, err
	}
	tAssess := time.Now()
	plan, err := Optimize(assessment, cfg)
	if err != nil {
		return nil, err
	}
	tOptimize := time.Now()
	model, err := Generate(net, plan, cfg)
	if err != nil {
		return nil, err
	}
	tGenerate := time.Now()

	res := &Result{
		Assessment:             assessment,
		Plan:                   plan,
		Model:                  model,
		Before:                 assessment.Baseline,
		EncodeTime:             tGenerate.Sub(start),
		AssessTime:             tAssess.Sub(start),
		OptimizeTime:           tOptimize.Sub(tAssess),
		GenerateTime:           tGenerate.Sub(tOptimize),
		OriginalBytesPerKind:   map[string]int64{},
		CompressedBytesPerKind: map[string]int{},
	}
	for _, cl := range selectLayers(net, cfg.Layers) {
		b := int64(len(cl.Weights())) * 4
		res.OriginalBytes += b
		res.OriginalBytesPerKind[cl.Kind().String()] += b
	}
	for _, la := range assessment.Layers {
		res.CSRBytes += la.Sparse.Bytes()
	}
	res.CompressedBytes = model.TotalBytes()
	for i := range model.Layers {
		l := &model.Layers[i]
		res.CompressedBytesPerKind[l.Kind.String()] += l.CompressedBytes()
	}

	// Verify end to end: reconstruct a clone from the compressed model and
	// measure its accuracy. No layer in front of Split is in the model, so
	// the clone's activations there are the ones assessment cached, and
	// evaluating from them equals recon.Evaluate(test) without the prefix.
	tVerify := time.Now()
	recon := net.Clone()
	if _, err := model.Apply(recon); err != nil {
		return nil, err
	}
	res.After = recon.EvaluateFrom(assessment.Split, features, test, cfg.TestBatch)
	res.VerifyTime = time.Since(tVerify)
	return res, nil
}

// PruneNetwork is a convenience wrapper for step 1: magnitude-prune every
// fc layer of net to the given keep ratios and retrain with masks.
func PruneNetwork(net *nn.Network, train *dataset.Set, ratios map[string]float64,
	defaultRatio float64, retrainEpochs int, lr float32, seed uint64) {
	prune.Network(net, ratios, defaultRatio)
	if retrainEpochs > 0 {
		prune.Retrain(net, train, retrainEpochs, lr, rngFor(seed))
	}
}

func rngFor(seed uint64) *tensor.RNG { return tensor.NewRNG(seed) }
