package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/huffman"
	"repro/internal/lossless"
	"repro/internal/models"
	"repro/internal/tensor"
)

// In-process probes: each times one layer's public functions on the
// workload's own artifacts, from outside the layer. They link only the
// stable low layers (core, codec, nn, models, tensor, huffman, lossless),
// never serve, gateway or telemetry. Probes run in the traced run only, so
// they never share the CPUs with a measured end-to-end window.

// timeCalls runs fn for at least `atLeast` and at least three times and
// returns the median seconds per call.
func timeCalls(atLeast time.Duration, fn func() error) (float64, error) {
	var each []float64
	start := time.Now()
	for len(each) < 3 || time.Since(start) < atLeast {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		each = append(each, time.Since(t0).Seconds())
	}
	return median(each), nil
}

const probeFor = 30 * time.Millisecond

// probeEB is the error bound the codec probes compress at.
const probeEB = 1e-2

// probeSource is what the codec-level probes run on: paper_fc's fc6, the
// one layer big enough (8.4 M weights, 755 k non-zero) for MB/s to mean
// something.
type probeSource struct {
	Weights []float32 // dense, pruned
	Index   []byte    // the stored index array, decompressed
}

// probeLayer is the paper_fc layer the probes use.
const probeLayer = "fc6"

func newProbeSource(off *offlineResult) (*probeSource, error) {
	m, err := core.Unmarshal(off.PaperFCBlob)
	if err != nil {
		return nil, err
	}
	l := m.Layer(probeLayer)
	if l == nil {
		return nil, fmt.Errorf("paper_fc stream has no layer %s", probeLayer)
	}
	comp, err := lossless.ByID(l.IndexID)
	if err != nil {
		return nil, err
	}
	idx, err := comp.Decompress(l.IndexBlob)
	if err != nil {
		return nil, err
	}
	return &probeSource{Weights: off.PaperFC.CompressibleByName(probeLayer).Weights(), Index: idx}, nil
}

func mbPerS(bytes int, seconds float64) float64 { return float64(bytes) / 1e6 / seconds }

// codecProbes runs every lossy codec the metric table names on the source's
// data array (its nonzero weights). A codec that is no longer registered
// yields nulls with that reason.
func codecProbes(src *probeSource, ms *metricSet) {
	var data []float32
	for _, w := range src.Weights {
		if w != 0 {
			data = append(data, w)
		}
	}
	raw := 4 * len(data)
	for _, name := range []string{"sz", "zfp", "deepcomp"} {
		prefix := "codec." + name + "."
		fail := func(err error) {
			for _, m := range []string{"compress_mb_s", "decompress_mb_s", "ratio", "max_err_over_eb"} {
				ms.miss(prefix+m, err.Error())
			}
		}
		cdc, err := codec.ByName(name)
		if err != nil {
			fail(err)
			continue
		}
		var blob []byte
		sec, err := timeCalls(probeFor, func() (err error) {
			blob, err = cdc.Compress(data, codec.Options{ErrorBound: probeEB})
			return err
		})
		if err != nil {
			fail(err)
			continue
		}
		ms.set(prefix+"compress_mb_s", mbPerS(raw, sec))
		ms.set(prefix+"ratio", float64(raw)/float64(len(blob)))
		var dec []float32
		sec, err = timeCalls(probeFor, func() (err error) {
			dec, err = cdc.Decompress(blob)
			return err
		})
		if err != nil {
			ms.miss(prefix+"decompress_mb_s", err.Error())
			ms.miss(prefix+"max_err_over_eb", err.Error())
			continue
		}
		ms.set(prefix+"decompress_mb_s", mbPerS(raw, sec))
		rep, err := checkBound(data, dec, probeEB)
		ms.setOr(prefix+"max_err_over_eb", rep.MaxErrOverEB, err)
	}

	// lossless: the index array through best-fit selection and back.
	var comp lossless.Compressor
	var blob []byte
	sec, _ := timeCalls(probeFor, func() error {
		comp, blob = lossless.Best(src.Index)
		return nil
	})
	ms.set("lossless.best_compress_mb_s", mbPerS(len(src.Index), sec))
	sec, err := timeCalls(probeFor, func() error {
		_, err := comp.Decompress(blob)
		return err
	})
	ms.setOr("lossless.decompress_mb_s", mbPerS(len(src.Index), sec), err)

	// huffman: SZ-style quantisation codes — each value's error-bound
	// interval number, predicted from its predecessor (SZ keeps its own
	// codes private; these have the same peaked distribution).
	codes := make([]uint32, len(data))
	prev := int64(0)
	for i, v := range data {
		q := int64(math.Round(float64(v) / (2 * probeEB)))
		codes[i] = uint32(q - prev + 1<<15)
		prev = q
	}
	var enc []byte
	sec, _ = timeCalls(probeFor, func() error {
		enc = huffman.Encode(codes)
		return nil
	})
	ms.set("huffman.encode_mb_s", mbPerS(4*len(codes), sec))
	sec, err = timeCalls(probeFor, func() error {
		_, err := huffman.Decode(enc)
		return err
	})
	ms.setOr("huffman.decode_mb_s", mbPerS(4*len(codes), sec), err)
}

// coreDecodeProbes times parsing (header + CRC tiers) and a serial decode's
// three stages on paper_fc's stream.
func coreDecodeProbes(artifact []byte, runDir string, ms *metricSet) {
	path := filepath.Join(runDir, "paper_fc.dsz")
	if err := os.WriteFile(path, artifact, 0o644); err != nil {
		ms.miss("core.read_model_ms", err.Error())
	} else {
		sec, err := timeCalls(probeFor, func() error {
			_, err := core.ReadModel(path)
			return err
		})
		ms.setOr("core.read_model_ms", 1e3*sec, err)
	}
	m, err := core.Unmarshal(artifact)
	if err != nil {
		for _, n := range []string{"lossless", "lossy", "reconstruct"} {
			ms.miss("core.decode."+n+"_ms", err.Error())
		}
		return
	}
	var lossl, lossy, recon []float64
	_, err = timeCalls(probeFor, func() error {
		_, bd, err := m.DecodeWith(1)
		lossl = append(lossl, bd.Lossless.Seconds())
		lossy = append(lossy, bd.Lossy.Seconds())
		recon = append(recon, bd.Reconstruct.Seconds())
		return err
	})
	ms.setOr("core.decode.lossless_ms", 1e3*median(lossl), err)
	ms.setOr("core.decode.lossy_ms", 1e3*median(lossy), err)
	ms.setOr("core.decode.reconstruct_ms", 1e3*median(recon), err)
}

// coreEncodeProbes times the three steps of core.Encode separately on each
// of the workload's nets, configured as `deepsz encode` configures them at
// its defaults, and sums over the nets.
func coreEncodeProbes(e *env, nets []string, ms *metricSet) {
	var assess, optimize, generate float64
	err := func() error {
		for _, name := range nets {
			net, err := loadNet(name, e.pruned(name))
			if err != nil {
				return err
			}
			_, test, err := models.DataFor(name, 10, 500)
			if err != nil {
				return err
			}
			cfg := core.Config{ExpectedAccuracyLoss: 0.02, DistortionCriterion: 0.005, Codec: codec.IDSZ}
			t0 := time.Now()
			a, err := core.Assess(net, test, cfg)
			if err != nil {
				return err
			}
			t1 := time.Now()
			plan, err := core.Optimize(a, cfg)
			if err != nil {
				return err
			}
			t2 := time.Now()
			if _, err := core.Generate(net, plan, cfg); err != nil {
				return err
			}
			assess += t1.Sub(t0).Seconds()
			optimize += t2.Sub(t1).Seconds()
			generate += time.Since(t2).Seconds()
		}
		return nil
	}()
	ms.setOr("core.assess_s", assess, err)
	ms.setOr("core.optimize_ms", 1e3*optimize, err)
	ms.setOr("core.generate_s", generate, err)
}

// kernelProbes times the dense and CSR fc kernels and whole forwards at the
// serving workloads' shapes. Weights are synthetic at the pruned density;
// only the time is read.
func kernelProbes(ms *metricSet) {
	rng := tensor.NewRNG(7)
	for _, s := range []struct {
		tag            string
		in, out, batch int
	}{
		{"fc784x300.b4", 784, 300, 4},   // lenet-300-100 ip1 at the 4-row workloads
		{"fc256x512.b32", 256, 512, 32}, // vgg16-s fc6 at bulk_closed
	} {
		w := tensor.New(s.out, s.in)
		for i := range w.Data {
			if rng.Float64() < 0.09 {
				w.Data[i] = rng.Float32() - 0.5
			}
		}
		x := tensor.New(s.batch, s.in)
		rng.FillUniform(x.Data, 0, 1)
		csr := tensor.CSRFromDense(w.Data, s.out, s.in)
		sec, _ := timeCalls(probeFor, func() error { tensor.MatMulTransB(x, w); return nil })
		ms.set("tensor.dense_ns_per_row."+s.tag, 1e9*sec/float64(s.batch))
		sec, _ = timeCalls(probeFor, func() error { tensor.MatMulTransBCSR(x, csr); return nil })
		ms.set("tensor.csr_ns_per_row."+s.tag, 1e9*sec/float64(s.batch))
	}

	for _, s := range []struct {
		net   string
		batch int
	}{{models.LeNet300, 4}, {models.VGG16S, 32}} {
		name := fmt.Sprintf("nn.forward_ms.%s.b%d", s.net, s.batch)
		net, err := models.Build(s.net, tensor.NewRNG(42))
		if err != nil {
			ms.miss(name, err.Error())
			continue
		}
		shape, err := models.InputShape(s.net)
		if err != nil {
			ms.miss(name, err.Error())
			continue
		}
		x := tensor.New(append([]int{s.batch}, shape...)...)
		rng.FillUniform(x.Data, 0, 1)
		whole, _ := timeCalls(probeFor, func() error { net.Forward(x, false); return nil })
		ms.set(name, 1e3*whole)
		if s.net == models.VGG16S {
			split := net.FirstDenseIndex()
			conv, _ := timeCalls(probeFor, func() error { net.ForwardRange(0, split, x, false); return nil })
			ms.set("nn.conv_share.vgg16-s.b32", conv/whole)
		}
	}
}
