// Command deepsz is the end-to-end CLI for the DeepSZ pipeline: train a
// network on its synthetic dataset, prune it, encode it into a compressed
// model file, decode the file back into weights, and evaluate accuracy.
//
// Typical session:
//
//	deepsz train  -net lenet-300-100 -out lenet.weights
//	deepsz prune  -net lenet-300-100 -in lenet.weights -out pruned.weights
//	deepsz encode -net lenet-300-100 -in pruned.weights -out model.dsz -loss 0.02
//	deepsz decode -net lenet-300-100 -model model.dsz -out restored.weights
//	deepsz eval   -net lenet-300-100 -in restored.weights
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/prune"
	"repro/internal/tensor"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "train":
		err = cmdTrain(args)
	case "prune":
		err = cmdPrune(args)
	case "encode":
		err = cmdEncode(args)
	case "decode":
		err = cmdDecode(args)
	case "eval":
		err = cmdEval(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "deepsz:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: deepsz <train|prune|encode|decode|eval> [flags]

  train  -net NAME -out FILE [-epochs N] [-samples N] [-seed N]
  prune  -net NAME -in FILE -out FILE [-retrain N] [-layers fc|all]
  encode -net NAME -in FILE -out FILE [-loss F] [-ratio F] [-workers N] [-codec NAME] [-layers fc|all]
  decode -net NAME -model FILE -out FILE
  eval   -net NAME -in FILE [-samples N]

networks: lenet-300-100, lenet-5, alexnet-s, vgg16-s
codecs:   `+strings.Join(codec.Names(), ", ")+` (default sz; decode reads
the codec from the .dsz stream)
layers:   fc compresses fully connected layers only (paper-faithful
default); all extends pruning and compression to every weighted layer,
conv included (version-3 .dsz streams carry the layer kinds and shapes)

To serve an encoded model over HTTP (the model stays compressed at rest;
fc layers are decoded on demand through a bounded cache), use the deepszd
daemon; to spread traffic across a fleet of replicas, put the deepszgw
gateway in front of them:

  deepszd  -addr :8081 -model model.dsz -mem-budget 2m
  deepszgw -addr :8080 -backends http://localhost:8081,http://localhost:8082

See README.md ("Serving compressed models" and "Serving from a replica
fleet") for the full encode → deepszd → deepszgw → curl flow.`)
}

// buildNet constructs a network with deterministic initialisation.
func buildNet(name string, seed uint64) (*nn.Network, error) {
	return models.Build(name, tensor.NewRNG(seed))
}

func loadNet(name, path string, seed uint64) (*nn.Network, error) {
	net, err := buildNet(name, seed)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := nn.LoadWeights(f, net); err != nil {
		return nil, fmt.Errorf("loading %s: %w", path, err)
	}
	return net, nil
}

func saveNet(net *nn.Network, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := nn.SaveWeights(f, net); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	name := fs.String("net", models.LeNet300, "network name")
	out := fs.String("out", "", "output weights file")
	epochs := fs.Int("epochs", 3, "training epochs")
	samples := fs.Int("samples", 1200, "training samples")
	seed := fs.Uint64("seed", 42, "rng seed")
	lr := fs.Float64("lr", 0.05, "learning rate")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("train: -out required")
	}
	net, err := buildNet(*name, *seed)
	if err != nil {
		return err
	}
	train, test, err := models.DataFor(*name, *samples, *samples/3)
	if err != nil {
		return err
	}
	rng := tensor.NewRNG(*seed)
	opt := nn.NewSGD(float32(*lr), 0.9, 1e-4)
	loss := nn.Train(net, train, opt, nn.TrainConfig{Epochs: *epochs, BatchSize: 32, LRDecay: 0.7}, rng)
	acc := net.Evaluate(test, 100)
	fmt.Printf("trained %s: loss %.4f, top-1 %.2f%%, top-5 %.2f%%\n",
		*name, loss, 100*acc.Top1, 100*acc.Top5)
	return saveNet(net, *out)
}

func cmdPrune(args []string) error {
	fs := flag.NewFlagSet("prune", flag.ExitOnError)
	name := fs.String("net", models.LeNet300, "network name")
	in := fs.String("in", "", "input weights file")
	out := fs.String("out", "", "output weights file")
	retrain := fs.Int("retrain", 1, "mask-retraining epochs")
	samples := fs.Int("samples", 1200, "retraining samples")
	layers := fs.String("layers", "fc", "layers to prune: fc (paper-faithful) or all")
	convKeep := fs.Float64("conv-keep", 0.4, "default keep ratio for conv layers with -layers all")
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("prune: -in and -out required")
	}
	sel, err := parseLayers(*layers)
	if err != nil {
		return fmt.Errorf("prune: %w", err)
	}
	net, err := loadNet(*name, *in, 42)
	if err != nil {
		return err
	}
	if sel == core.LayersAll {
		prune.NetworkAll(net, prune.PaperRatios(*name), 0.1, *convKeep)
	} else {
		prune.Network(net, prune.PaperRatios(*name), 0.1)
	}
	if *retrain > 0 {
		train, _, err := models.DataFor(*name, *samples, 10)
		if err != nil {
			return err
		}
		prune.Retrain(net, train, *retrain, 0.03, tensor.NewRNG(7))
	}
	for _, cl := range net.CompressibleLayers() {
		if p := cl.WeightParam(); p.Mask != nil {
			fmt.Printf("pruned %s [%s] to %.1f%% density\n", cl.Name(), cl.Kind(), 100*p.Density())
		}
	}
	return saveNet(net, *out)
}

// parseLayers maps the -layers flag to a core.LayerSelection.
func parseLayers(v string) (core.LayerSelection, error) {
	switch v {
	case "fc":
		return core.LayersFC, nil
	case "all":
		return core.LayersAll, nil
	}
	return 0, fmt.Errorf("bad -layers %q (want fc or all)", v)
}

func cmdEncode(args []string) error {
	fs := flag.NewFlagSet("encode", flag.ExitOnError)
	name := fs.String("net", models.LeNet300, "network name")
	in := fs.String("in", "", "pruned weights file")
	out := fs.String("out", "", "compressed model file")
	loss := fs.Float64("loss", 0.02, "expected accuracy loss (fraction)")
	ratio := fs.Float64("ratio", 0, "expected compression ratio (enables expected-ratio mode)")
	workers := fs.Int("workers", 0, "assessment workers (0 = GOMAXPROCS)")
	samples := fs.Int("samples", 500, "test samples for assessment")
	codecName := fs.String("codec", "sz", "lossy codec for data arrays ("+strings.Join(codec.Names(), ", ")+")")
	layers := fs.String("layers", "fc", "layers to compress: fc (paper-faithful) or all")
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("encode: -in and -out required")
	}
	cdc, err := codec.ByName(*codecName)
	if err != nil {
		return fmt.Errorf("encode: %w (have: %s)", err, strings.Join(codec.Names(), ", "))
	}
	sel, err := parseLayers(*layers)
	if err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	net, err := loadNet(*name, *in, 42)
	if err != nil {
		return err
	}
	_, test, err := models.DataFor(*name, 10, *samples)
	if err != nil {
		return err
	}
	cfg := core.Config{
		Layers:               sel,
		ExpectedAccuracyLoss: *loss,
		DistortionCriterion:  0.005,
		Workers:              *workers,
		Codec:                cdc.ID(),
	}
	if *ratio > 0 {
		cfg.Mode = core.ExpectedRatio
		cfg.TargetRatio = *ratio
	}
	res, err := core.Encode(net, test, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("encoded %s [%s, layers %s]: %d → %d bytes (%.1fx, pruning alone %.1fx)\n",
		*name, cdc.Name(), sel, res.OriginalBytes, res.CompressedBytes,
		res.CompressionRatio(), res.PruningRatio())
	for _, kind := range []string{"fc", "conv"} {
		if o := res.OriginalBytesPerKind[kind]; o > 0 {
			fmt.Printf("  %s: %d → %d bytes\n", kind, o, res.CompressedBytesPerKind[kind])
		}
	}
	fmt.Printf("accuracy: %.2f%% → %.2f%% (budget %.2f%%)\n",
		100*res.Before.Top1, 100*res.After.Top1, 100**loss)
	for _, c := range res.Plan.Choices {
		fmt.Printf("  %s: eb %.0e, %d B data + %d B index\n", c.Layer, c.EB, c.DataBytes, c.IndexBytes)
	}
	const tick = 10 * time.Microsecond
	fmt.Printf("time: assess %v (%d tests), optimize %v, generate %v, verify %v\n",
		res.AssessTime.Round(tick), res.Assessment.Tests, res.OptimizeTime.Round(tick),
		res.GenerateTime.Round(tick), res.VerifyTime.Round(tick))
	return os.WriteFile(*out, res.Model.Marshal(), 0o644)
}

func cmdDecode(args []string) error {
	fs := flag.NewFlagSet("decode", flag.ExitOnError)
	name := fs.String("net", models.LeNet300, "network name")
	modelPath := fs.String("model", "", "compressed model file")
	in := fs.String("in", "", "optional weights file to overlay onto (default: fresh init)")
	out := fs.String("out", "", "output weights file")
	fs.Parse(args)
	if *modelPath == "" || *out == "" {
		return fmt.Errorf("decode: -model and -out required")
	}
	m, err := core.ReadModel(*modelPath)
	if err != nil {
		return err
	}
	var net *nn.Network
	if *in != "" {
		net, err = loadNet(*name, *in, 42)
	} else {
		net, err = buildNet(*name, 42)
	}
	if err != nil {
		return err
	}
	bd, err := m.Apply(net)
	if err != nil {
		return err
	}
	fmt.Printf("decoded %s: lossless %v, lossy %v, reconstruct %v\n",
		*name, bd.Lossless, bd.Lossy, bd.Reconstruct)
	return saveNet(net, *out)
}

func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	name := fs.String("net", models.LeNet300, "network name")
	in := fs.String("in", "", "weights file")
	samples := fs.Int("samples", 600, "test samples")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("eval: -in required")
	}
	net, err := loadNet(*name, *in, 42)
	if err != nil {
		return err
	}
	_, test, err := models.DataFor(*name, 10, *samples)
	if err != nil {
		return err
	}
	acc := net.Evaluate(test, 100)
	fmt.Printf("%s: top-1 %.2f%%, top-5 %.2f%% (%d samples)\n",
		*name, 100*acc.Top1, 100*acc.Top5, test.Len())
	return nil
}
