package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/lossless"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/prune"
	"repro/internal/tensor"
)

// The tests in this file hold DecodeLayer's one-walk reconstruction to the
// two-step reference it replaced: Decode() to a dense tensor, then
// tensor.CSRFromDense. Same quantity, two ways, compared array by array.

// shapedLayer presents an arbitrary weight tensor to generateLayer, so the
// production encoder builds the blobs for shapes and zero patterns no real
// network layer would hold (an empty matrix, a 1×N row, rows of all zeros).
type shapedLayer struct {
	*nn.Dense // name and bias
	kind      nn.LayerKind
	shape     []int
	w         []float32
}

func (s shapedLayer) Kind() nn.LayerKind { return s.kind }
func (s shapedLayer) WeightShape() []int { return s.shape }
func (s shapedLayer) Weights() []float32 { return s.w }

// encodeShaped runs the real encoder over w and returns a one-layer model.
func encodeShaped(t *testing.T, kind nn.LayerKind, shape []int, w []float32, cdc codec.Codec, withCRC bool) *Model {
	t.Helper()
	rows := 0
	if len(shape) > 0 {
		rows = shape[0]
	}
	d := nn.NewDense("layer", 1, rows, tensor.NewRNG(5))
	tensor.NewRNG(6).FillNormal(d.B.W.Data, 0, 1)
	cfg := Config{ExpectedAccuracyLoss: 0.01, DecodedChecksums: ChecksumOff}
	if withCRC {
		cfg.DecodedChecksums = ChecksumAll
	}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	blob, err := generateLayer(shapedLayer{d, kind, shape, w}, Choice{Layer: "layer", EB: 1e-2, Codec: cdc.ID()}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if blob.HasDecodedCRC != withCRC {
		t.Fatalf("HasDecodedCRC = %v, want %v", blob.HasDecodedCRC, withCRC)
	}
	m := &Model{NetName: "shaped", Layers: []LayerBlob{blob}}
	m.buildIndex()
	return m
}

func sameF32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// checkDecodeIdentity compares DecodeLayer(name, threshold) for every layer
// of m against Decode() followed by CSRFromDense, in every field a kernel,
// the cache's checksum or /v1/stats reads.
func checkDecodeIdentity(t *testing.T, m *Model, threshold float64) {
	t.Helper()
	ref, _, err := m.Decode()
	if err != nil {
		t.Fatalf("reference Decode: %v", err)
	}
	for i := range ref {
		want := ref[i]
		if want.Sparse != nil {
			t.Fatalf("%s: Decode returned a CSR layer", want.Name)
		}
		nnz := 0
		for _, v := range want.Weights {
			if v != 0 {
				nnz++
			}
		}
		var density float64
		if len(want.Weights) > 0 {
			density = float64(nnz) / float64(len(want.Weights))
		}
		if want.Density != density {
			t.Fatalf("%s: Decode density %v, dense scan says %v", want.Name, want.Density, density)
		}
		if threshold > 0 && len(want.Shape) >= 2 && len(want.Weights) > 0 && density < threshold {
			rows, cols := want.matDims()
			want.Sparse = tensor.CSRFromDense(want.Weights, rows, cols)
			want.Weights = nil
		}

		got, err := m.DecodeLayer(want.Name, threshold)
		if err != nil {
			t.Fatalf("%s: DecodeLayer(%v): %v", want.Name, threshold, err)
		}
		if (got.Sparse != nil) != (want.Sparse != nil) {
			t.Fatalf("%s: threshold %v density %v: sparse=%v, want %v",
				want.Name, threshold, density, got.Sparse != nil, want.Sparse != nil)
		}
		if got.Density != density {
			t.Fatalf("%s: density %v, want %v", want.Name, got.Density, density)
		}
		if !sameF32(got.Weights, want.Weights) || (got.Weights == nil) != (want.Weights == nil) {
			t.Fatalf("%s: dense weights differ from Decode()", want.Name)
		}
		if !sameF32(got.Bias, want.Bias) {
			t.Fatalf("%s: bias differs", want.Name)
		}
		if g, w := got.Sparse, want.Sparse; w != nil {
			if g.Rows != w.Rows || g.Cols != w.Cols {
				t.Fatalf("%s: CSR dims %dx%d, want %dx%d", want.Name, g.Rows, g.Cols, w.Rows, w.Cols)
			}
			if fmt.Sprint(g.RowPtr) != fmt.Sprint(w.RowPtr) {
				t.Fatalf("%s: RowPtr %v, want %v", want.Name, g.RowPtr, w.RowPtr)
			}
			if string(g.Delta) != string(w.Delta) {
				t.Fatalf("%s: Delta differs from CSRFromDense (%d vs %d entries)", want.Name, len(g.Delta), len(w.Delta))
			}
			if !sameF32(g.Val, w.Val) {
				t.Fatalf("%s: Val differs from CSRFromDense", want.Name)
			}
		}
		if got.Checksum() != want.Checksum() || got.ResidentBytes() != want.ResidentBytes() {
			t.Fatalf("%s: checksum %08x / %d resident bytes, want %08x / %d", want.Name,
				got.Checksum(), got.ResidentBytes(), want.Checksum(), want.ResidentBytes())
		}
		if got.Name != want.Name || got.Kind != want.Kind || fmt.Sprint(got.Shape) != fmt.Sprint(want.Shape) {
			t.Fatalf("%s: header fields differ", want.Name)
		}
	}
}

var identityThresholds = []float64{0, 0.05, 0.35, 1}

// zeroPattern fills a rows×cols matrix; values away from zero survive every
// codec's rounding as nonzeros.
type zeroPattern struct {
	name string
	fill func(w []float32, rows, cols int, rng *tensor.RNG)
}

func setSlot(w []float32, i int, rng *tensor.RNG) {
	if i >= 0 && i < len(w) {
		w[i] = float32(0.5 + rng.Float64())
	}
}

var zeroPatterns = []zeroPattern{
	{"all-zero", func(w []float32, rows, cols int, rng *tensor.RNG) {}},
	{"first-and-last-slot", func(w []float32, rows, cols int, rng *tensor.RNG) {
		setSlot(w, 0, rng)
		setSlot(w, len(w)-1, rng)
	}},
	{"long-gaps", func(w []float32, rows, cols int, rng *tensor.RNG) {
		// A gap over 255 inside row 0 (when it is wide enough), then one
		// that crosses a row boundary: the two-array form pads the global
		// gap, CSR restarts at the row and pads only the in-row part.
		setSlot(w, 3, rng)
		setSlot(w, 3+300, rng)
		setSlot(w, 3+300+2*255, rng)
		setSlot(w, len(w)-2, rng)
	}},
	{"zero-rows-first-middle-last", func(w []float32, rows, cols int, rng *tensor.RNG) {
		for r := 0; r < rows; r++ {
			if r == 0 || r == rows/2 || r == rows-1 {
				continue
			}
			for c := 0; c < cols; c += 1 + rng.Intn(9) {
				setSlot(w, r*cols+c, rng)
			}
		}
	}},
	{"density-4pct", func(w []float32, rows, cols int, rng *tensor.RNG) {
		for i := range w {
			if rng.Float64() < 0.04 {
				setSlot(w, i, rng)
			}
		}
	}},
	{"density-20pct", func(w []float32, rows, cols int, rng *tensor.RNG) {
		for i := range w {
			if rng.Float64() < 0.2 {
				setSlot(w, i, rng)
			}
		}
	}},
	{"dense", func(w []float32, rows, cols int, rng *tensor.RNG) {
		for i := range w {
			setSlot(w, i, rng)
		}
	}},
	{"entries-rounded-to-zero", func(w []float32, rows, cols int, rng *tensor.RNG) {
		// Surviving weights far below the error bound: a codec may hand
		// them back as exactly 0, which both forms must then drop — and
		// the neighbours' deltas must absorb the hole.
		for i := 0; i < len(w); i += 1 + rng.Intn(40) {
			if i%3 == 0 {
				setSlot(w, i, rng)
			} else {
				w[i] = 1e-6
			}
		}
	}},
}

func TestDecodeLayerIdentity(t *testing.T) {
	shapes := []struct {
		name  string
		kind  nn.LayerKind
		shape []int
	}{
		{"fc", nn.KindDense, []int{12, 700}},
		{"conv4d", nn.KindConv, []int{8, 5, 3, 3}},
		{"1xN", nn.KindDense, []int{1, 1500}},
		{"empty", nn.KindDense, []int{0, 64}},
	}
	sawRoundedToZero := false
	for _, name := range codec.Names() {
		cdc, err := codec.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range shapes {
			rows, cols := sh.shape[0], 1
			for _, d := range sh.shape[1:] {
				cols *= d
			}
			for pi, p := range zeroPatterns {
				w := make([]float32, rows*cols)
				p.fill(w, rows, cols, tensor.NewRNG(uint64(100+pi)))
				for _, withCRC := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/%s/%s/crc=%v", name, sh.name, p.name, withCRC), func(t *testing.T) {
						m := encodeShaped(t, sh.kind, sh.shape, w, cdc, withCRC)
						for _, th := range identityThresholds {
							checkDecodeIdentity(t, m, th)
						}
						if p.name == "entries-rounded-to-zero" {
							dl, err := m.DecodeLayer("layer", 0)
							if err != nil {
								t.Fatal(err)
							}
							for i, v := range w {
								if v != 0 && dl.Weights[i] == 0 {
									sawRoundedToZero = true
								}
							}
						}
					})
				}
			}
		}
	}
	if !sawRoundedToZero {
		t.Fatal("no codec returned a surviving weight as exactly 0: the pattern no longer covers that case")
	}
}

// TestDecodeLayerIdentityFixturesAndZoo runs the same comparison over the
// checked-in v1–v4 streams and the four evaluation networks (fc and conv
// layers, decoded checksums on).
func TestDecodeLayerIdentityFixturesAndZoo(t *testing.T) {
	for _, path := range []string{goldenV1Path, goldenV2Path, goldenV3Path, goldenV4Path} {
		m, err := ReadModel(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, th := range identityThresholds {
			checkDecodeIdentity(t, m, th)
		}
	}
	for _, name := range models.All() {
		m := zooModel(t, name)
		for _, th := range identityThresholds {
			checkDecodeIdentity(t, m, th)
		}
	}
}

// zooModels memoises zooModel: two tests and a benchmark read the same
// four streams, and encoding them is most of what this file costs under the
// race detector.
var zooModels = map[string]*Model{}

// zooModel prunes an untrained evaluation network to the paper's ratios and
// encodes every weighted layer with decoded checksums on. The model is
// shared between callers and must not be modified.
func zooModel(t testing.TB, name string) *Model {
	t.Helper()
	if m := zooModels[name]; m != nil {
		return m
	}
	net, err := models.Build(name, tensor.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	prune.NetworkAll(net, prune.PaperRatios(name), 0.1, 0.5)
	m, err := Generate(net, simplePlanAll(net, 1e-2),
		Config{ExpectedAccuracyLoss: 0.01, Layers: LayersAll, DecodedChecksums: ChecksumAll})
	if err != nil {
		t.Fatal(err)
	}
	zooModels[name] = m
	return m
}

// TestEncoderDidNotMove pins the bytes Generate+Marshal produce for the four
// evaluation networks to the digests recorded before DecodeLayer stopped
// going through the dense form: the decode side changed, the streams did not.
func TestEncoderDidNotMove(t *testing.T) {
	for name, want := range map[string]string{
		models.LeNet300: "ba600bd79e42ec62db8694a2fd609042a190f246d71ae487fca33e9f6347f424",
		models.LeNet5:   "3e5490a26fc701204f8223060ccf340cbe3a4a0bfe0cf62f11b97f0b207c8fdb",
		models.AlexNetS: "779a8aa236f8a120188be03b166fa301428c16477622cd46f6d2a7dd0c95e081",
		models.VGG16S:   "83bfc1d2edd3a008d576d6198f39c189dae582daec118426946079a37486fd59",
	} {
		sum := sha256.Sum256(zooModel(t, name).Marshal())
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s stream digest %s, want %s", name, got, want)
		}
	}
}

// TestDecodeLayerDetectsCorruptionInBothForms flips what the one walk is
// responsible for catching, and expects the same attribution whether the
// layer was headed for the dense or the CSR form.
func TestDecodeLayerDetectsCorruptionInBothForms(t *testing.T) {
	cdc, _ := codec.ByID(codec.IDSZ)
	w := make([]float32, 12*700)
	rng := tensor.NewRNG(1)
	for i := range w {
		if rng.Float64() < 0.04 {
			setSlot(w, i, rng)
		}
	}
	for _, withCRC := range []bool{false, true} {
		for _, th := range []float64{0, 1} {
			// A decode-path fault: blobs intact, decoded bytes not what
			// the writer recorded.
			if withCRC {
				m := encodeShaped(t, nn.KindDense, []int{12, 700}, w, cdc, true)
				m.Layers[0].DecodedCRC ^= 1
				_, err := m.DecodeLayer("layer", th)
				var ce *CorruptError
				if !errors.As(err, &ce) || ce.Kind != CorruptDecoded {
					t.Fatalf("threshold %v: flipped DecodedCRC gave %v, want a decoded-kind CorruptError", th, err)
				}
			}
			// A zero index byte, resealed so the blob CRC holds: two
			// entries on one slot.
			m := encodeShaped(t, nn.KindDense, []int{12, 700}, w, cdc, withCRC)
			l := &m.Layers[0]
			comp, err := lossless.ByID(l.IndexID)
			if err != nil {
				t.Fatal(err)
			}
			idx, err := comp.Decompress(l.IndexBlob)
			if err != nil {
				t.Fatal(err)
			}
			idx[len(idx)/2] = 0
			l.IndexBlob = comp.Compress(idx)
			l.IndexCRC = crc32c(l.IndexBlob)
			_, err = m.DecodeLayer("layer", th)
			var ce *CorruptError
			if !errors.As(err, &ce) || ce.Kind != CorruptBlob {
				t.Fatalf("crc=%v threshold %v: zero index byte gave %v, want a blob-kind CorruptError", withCRC, th, err)
			}
			if _, _, err := m.Decode(); !errors.As(err, &ce) || ce.Kind != CorruptBlob {
				t.Fatalf("crc=%v: Decode of a zero index byte gave %v, want a blob-kind CorruptError", withCRC, err)
			}
		}
	}
}

func TestEstimatedDensity(t *testing.T) {
	// Build a real blob via Generate and compare the header estimate with
	// the decoded truth: estimate must be an upper bound within the
	// padding slack.
	rng := tensor.NewRNG(4)
	net := nn.NewNetwork("est", nn.NewFlatten("flat"), nn.NewDense("ip1", 64, 32, rng))
	prune.Network(net, map[string]float64{"ip1": 0.1}, 0.1)
	plan := &Plan{Choices: []Choice{{Layer: "ip1", EB: 1e-3}}}
	m, err := Generate(net, plan, Config{ExpectedAccuracyLoss: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	l := m.Layer("ip1")
	est := l.EstimatedDensity()
	dl, err := m.DecodeLayer("ip1", 0)
	if err != nil {
		t.Fatal(err)
	}
	exact := dl.Density
	if est < exact {
		t.Fatalf("estimate %v below exact density %v", est, exact)
	}
	if est > exact+0.05 {
		t.Fatalf("estimate %v too far above exact %v (padding slack only)", est, exact)
	}
	if idx, ok := m.LayerIndex("ip1"); !ok || idx != 0 {
		t.Fatalf("LayerIndex = %d,%v", idx, ok)
	}
	if _, ok := m.LayerIndex("nope"); ok {
		t.Fatal("LayerIndex found a missing layer")
	}
}

// BenchmarkDecodeLayer times one cache miss's worth of core work — the
// layer decoded into its resident form — on the layer the thrashing bench
// workload misses on most (lenet-300-100 ip1, 8 % dense) and on one at the
// paper's fc6 scale (4096×2048, 9 % dense). Run with -benchmem: bytes/op is
// the transient memory a miss costs on top of the blobs.
func BenchmarkDecodeLayer(b *testing.B) {
	fc6 := nn.NewDense("fc6", 4096, 2048, tensor.NewRNG(12))
	// P(|w| ≥ cut) = 0.09 for w ~ N(0, σ), σ = √(2/in): what magnitude
	// pruning keeps, without sorting 8 M weights.
	cut := float32(math.Sqrt2 * math.Erfinv(1-0.09) * math.Sqrt(2.0/4096))
	for i, v := range fc6.W.W.Data {
		if -cut < v && v < cut {
			fc6.W.W.Data[i] = 0
		}
	}
	big, err := Generate(nn.NewNetwork("paper-fc6", fc6), &Plan{Choices: []Choice{{Layer: "fc6", EB: 1e-2}}},
		Config{ExpectedAccuracyLoss: 0.02})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name  string
		m     *Model
		layer string
	}{
		{"lenet-300-100-ip1", zooModel(b, models.LeNet300), "ip1"},
		{"paper-fc6", big, "fc6"},
	} {
		for _, form := range []struct {
			name        string
			sparseBelow float64
		}{{"csr", 0.35}, {"dense", 0}} {
			b.Run(bc.name+"/"+form.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					dl, err := bc.m.DecodeLayer(bc.layer, form.sparseBelow)
					if err != nil {
						b.Fatal(err)
					}
					if (dl.Sparse != nil) != (form.sparseBelow > 0) {
						b.Fatalf("layer came back sparse=%v", dl.Sparse != nil)
					}
				}
			})
		}
	}
}
