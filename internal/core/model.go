package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/lossless"
	"repro/internal/nn"
	"repro/internal/prune"
	"repro/internal/tensor"
)

// LayerBlob is one compressed layer of a model: the lossy-compressed data
// array, the losslessly compressed index array, and the raw biases (biases
// are a few hundred bytes; the paper leaves them untouched).
type LayerBlob struct {
	Name string
	// Kind tags the layer family (fc, conv); Shape holds the weight
	// tensor's dimensions — [out, in] for fc, [outC, inC, k, k] for conv.
	// Streams older than version 3 only ever carried fc layers, so their
	// readers fill Kind=KindDense and Shape=[rows, cols].
	Kind  nn.LayerKind
	Shape []int
	EB    float64
	// Codec identifies the lossy back-end that produced DataBlob. Version-1
	// streams predate the field and always carry codec.IDSZ.
	Codec     codec.ID
	Bias      []float32
	DataBlob  []byte
	IndexID   lossless.ID
	IndexBlob []byte
	IndexLen  int // entries in the decompressed index array

	// Integrity (stream version 4). Checksummed marks DataCRC/IndexCRC as
	// valid CRC32C values over the stored blobs — set by Generate and the
	// v4 reader; false on v1–v3 reads and hand-assembled models, whose
	// decodes skip blob verification. DecodedCRC, present only when
	// HasDecodedCRC, covers the decoded dense weights plus bias
	// (DecodedChecksum): criticality-aware protection written for layers
	// whose assessed sensitivity crosses Config.CriticalSensitivity, so
	// decode-path faults are caught on the accuracy-critical layers.
	DataCRC       uint32
	IndexCRC      uint32
	DecodedCRC    uint32
	Checksummed   bool
	HasDecodedCRC bool
}

// Model is the compressed-model container DeepSZ step 4 emits. It is
// immutable after construction and safe for concurrent reads; see the
// concurrency contract in stream.go.
type Model struct {
	NetName string
	Layers  []LayerBlob

	// index maps layer name → Layers position. Built once by Generate and
	// Unmarshal so the serve decode cache's per-request lookups are O(1)
	// instead of a linear scan; read-only afterwards, like the rest of the
	// model. Nil for hand-assembled models, which fall back to scanning.
	index map[string]int
}

const (
	modelMagic = 0x44535A31 // "DSZ1"
	// modelVersion1 streams have no per-layer codec byte: every data blob
	// is SZ-compressed. modelVersion2 adds one codec.ID byte per layer.
	// modelVersion3 replaces the fixed Rows×Cols pair with a layer-kind
	// byte plus an N-dimensional weight shape, admitting conv layers.
	// modelVersion4 adds integrity: a whole-model CRC32C digest in the
	// header (verified at Unmarshal), a flags byte and data/index blob
	// CRCs per layer (verified at decode), and an optional decoded-bytes
	// checksum for accuracy-critical layers. WriteModel/Marshal always
	// emit version 4; Unmarshal reads all four.
	modelVersion1 = 1
	modelVersion2 = 2
	modelVersion3 = 3
	modelVersion4 = 4
)

// layerFlagDecodedCRC marks a v4 layer record as carrying a trailing
// checksum over its decoded dense bytes. The remaining flag bits are
// reserved and must be zero.
const layerFlagDecodedCRC byte = 1 << 0

// maxLayerDense bounds the weight count accepted from serialized headers.
// 2^28 weights (1 GiB dense) is 2.6× the paper's largest fc layer (VGG-16
// fc6, ~103 M weights); forged headers beyond it are rejected before any
// allocation sized by the product.
const maxLayerDense = 1 << 28

// maxModelDense bounds the summed weight count over all layers of one model
// (2^29 weights = 2 GiB dense, 4× the paper's largest fc suffix). Without
// an aggregate cap, a stream of many individually-plausible layers could
// still drive Decode to unbounded total allocation.
const maxModelDense = 1 << 29

// maxShapeDims bounds the dimensionality a version-3 header may claim; the
// deepest real shape is conv's 4.
const maxShapeDims = 8

// ErrCorrupt is returned when a serialized model fails validation.
var ErrCorrupt = errors.New("core: corrupt model")

// WeightCount returns the number of dense weights (the product of Shape).
func (l *LayerBlob) WeightCount() int {
	n := 1
	for _, d := range l.Shape {
		n *= d
	}
	return n
}

// DenseBytes returns the memory cost of the layer once materialised: the
// dense weight tensor plus bias, in bytes.
func (l *LayerBlob) DenseBytes() int64 {
	return 4 * int64(l.WeightCount()+len(l.Bias))
}

// CompressedBytes returns the layer's stored size: data blob, index blob,
// and raw biases. The single source of truth for every per-layer size
// report (Tables 2–4, /v1/models).
func (l *LayerBlob) CompressedBytes() int {
	return len(l.DataBlob) + len(l.IndexBlob) + 4*len(l.Bias)
}

// TotalBytes returns the compressed payload size (data + index blobs +
// biases), i.e. the quantity Tables 2–4 report.
func (m *Model) TotalBytes() int {
	n := 0
	for _, l := range m.Layers {
		n += l.CompressedBytes()
	}
	return n
}

// Codecs returns the distinct codec identifiers used by the model's layers,
// in layer order. A freshly generated model has exactly one.
func (m *Model) Codecs() []codec.ID {
	var out []codec.ID
	for _, l := range m.Layers {
		seen := false
		for _, id := range out {
			if id == l.Codec {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, l.Codec)
		}
	}
	return out
}

// buildIndex populates the name→position map. Called once at construction
// (Generate, Unmarshal); the model is read-only afterwards.
func (m *Model) buildIndex() {
	m.index = make(map[string]int, len(m.Layers))
	for i := range m.Layers {
		m.index[m.Layers[i].Name] = i
	}
}

// Marshal serializes the model to a self-describing byte stream (always the
// current version-4 layout). It does not validate: hand-assembled models
// must carry unique layer names and a valid Kind/Shape per layer (as
// Generate and Unmarshal guarantee), or Unmarshal will reject the output.
// Blob CRCs are taken from the model when Checksummed (so a blob corrupted
// in memory after Generate is written with its original CRC and caught by
// the reader) and computed fresh otherwise, which is how v1–v3 reads and
// hand-assembled models upgrade to v4 transparently.
func (m *Model) Marshal() []byte {
	out := make([]byte, 0, 64+m.TotalBytes())
	out = binary.LittleEndian.AppendUint32(out, modelMagic)
	out = append(out, modelVersion4)
	out = appendString(out, m.NetName)
	digestOff := len(out)
	out = append(out, 0, 0, 0, 0) // whole-model digest, filled in below
	out = binary.LittleEndian.AppendUint16(out, uint16(len(m.Layers)))
	for i := range m.Layers {
		l := &m.Layers[i]
		out = appendString(out, l.Name)
		out = append(out, byte(l.Kind))
		out = append(out, byte(len(l.Shape)))
		for _, d := range l.Shape {
			out = binary.LittleEndian.AppendUint32(out, uint32(d))
		}
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(l.EB))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(l.Bias)))
		for _, b := range l.Bias {
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(b))
		}
		out = append(out, byte(l.Codec))
		var flags byte
		if l.HasDecodedCRC {
			flags |= layerFlagDecodedCRC
		}
		out = append(out, flags)
		dataCRC, indexCRC := l.DataCRC, l.IndexCRC
		if !l.Checksummed {
			dataCRC, indexCRC = crc32c(l.DataBlob), crc32c(l.IndexBlob)
		}
		out = appendBytes(out, l.DataBlob)
		out = binary.LittleEndian.AppendUint32(out, dataCRC)
		out = append(out, byte(l.IndexID))
		out = appendBytes(out, l.IndexBlob)
		out = binary.LittleEndian.AppendUint32(out, indexCRC)
		out = binary.LittleEndian.AppendUint32(out, uint32(l.IndexLen))
		if l.HasDecodedCRC {
			out = binary.LittleEndian.AppendUint32(out, l.DecodedCRC)
		}
	}
	// The digest covers every byte after itself (layer count through the
	// last layer record), so any flip in the file — header field, blob,
	// or stored CRC — fails the one check Unmarshal runs up front.
	binary.LittleEndian.PutUint32(out[digestOff:], crc32c(out[digestOff+4:]))
	return out
}

func appendString(out []byte, s string) []byte {
	out = binary.LittleEndian.AppendUint16(out, uint16(len(s)))
	return append(out, s...)
}

func appendBytes(out, b []byte) []byte {
	out = binary.LittleEndian.AppendUint32(out, uint32(len(b)))
	return append(out, b...)
}

type reader struct {
	buf []byte
	off int
}

func (r *reader) need(n int) error {
	if r.off+n > len(r.buf) {
		return ErrCorrupt
	}
	return nil
}

func (r *reader) u16() (uint16, error) {
	if err := r.need(2); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if err := r.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if err := r.need(8); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

func (r *reader) str() (string, error) {
	n, err := r.u16()
	if err != nil {
		return "", err
	}
	if err := r.need(int(n)); err != nil {
		return "", err
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

func (r *reader) bytes() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if err := r.need(int(n)); err != nil {
		return nil, err
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

func (r *reader) byte1() (byte, error) {
	if err := r.need(1); err != nil {
		return 0, err
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

// readShape parses the layer kind and weight shape of one serialized layer.
// Versions 1 and 2 store a fixed Rows×Cols pair (they predate conv support,
// so the kind is implicitly fc); version 3 stores a kind byte and an
// N-dimensional shape.
func readShape(r *reader, version byte, name string) (nn.LayerKind, []int, error) {
	if version < modelVersion3 {
		rows, err := r.u32()
		if err != nil {
			return 0, nil, err
		}
		cols, err := r.u32()
		if err != nil {
			return 0, nil, err
		}
		return nn.KindDense, []int{int(rows), int(cols)}, nil
	}
	kb, err := r.byte1()
	if err != nil {
		return 0, nil, err
	}
	kind := nn.LayerKind(kb)
	if !nn.KnownKind(kind) {
		return 0, nil, fmt.Errorf("%w: layer %s has unknown kind %d", ErrCorrupt, name, kb)
	}
	nd, err := r.byte1()
	if err != nil {
		return 0, nil, err
	}
	if nd == 0 || nd > maxShapeDims {
		return 0, nil, fmt.Errorf("%w: layer %s claims %d shape dimensions", ErrCorrupt, name, nd)
	}
	shape := make([]int, nd)
	for i := range shape {
		d, err := r.u32()
		if err != nil {
			return 0, nil, err
		}
		shape[i] = int(d)
	}
	return kind, shape, nil
}

// Unmarshal parses a serialized model. All four stream versions are
// accepted: version-1 layers (written before the codec registry existed)
// decode with the SZ codec, version-2 layers carry an explicit codec
// identifier, version-3 layers add a layer kind and N-dimensional weight
// shape, and version-4 streams add checksums — the whole-model digest is
// verified here, the per-blob CRCs at decode time (so a blob that rots
// after load is still caught).
func Unmarshal(blob []byte) (*Model, error) {
	r := &reader{buf: blob}
	magic, err := r.u32()
	if err != nil || magic != modelMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	version, err := r.byte1()
	if err != nil {
		return nil, err
	}
	if version < modelVersion1 || version > modelVersion4 {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, version)
	}
	m := &Model{}
	if m.NetName, err = r.str(); err != nil {
		return nil, err
	}
	if version >= modelVersion4 {
		digest, err := r.u32()
		if err != nil {
			return nil, err
		}
		if got := crc32c(r.buf[r.off:]); got != digest {
			return nil, &CorruptError{Kind: CorruptHeader,
				Detail: fmt.Sprintf("model digest %08x, header says %08x", got, digest)}
		}
	}
	nLayers, err := r.u16()
	if err != nil {
		return nil, err
	}
	var totalDense uint64
	for i := 0; i < int(nLayers); i++ {
		var l LayerBlob
		if l.Name, err = r.str(); err != nil {
			return nil, err
		}
		if l.Kind, l.Shape, err = readShape(r, version, l.Name); err != nil {
			return nil, err
		}
		// Forged dimensions must not drive huge allocations when the layer
		// is later reconstructed — per dimension, per layer, or in
		// aggregate (a zero dimension must not launder the others).
		product := uint64(1)
		for _, d := range l.Shape {
			if uint64(d) > maxLayerDense {
				return nil, fmt.Errorf("%w: layer %s claims dimension %d", ErrCorrupt, l.Name, d)
			}
			product *= uint64(d)
			if product > maxLayerDense {
				return nil, fmt.Errorf("%w: layer %s claims %v dense weights", ErrCorrupt, l.Name, l.Shape)
			}
		}
		totalDense += product
		if totalDense > maxModelDense {
			return nil, fmt.Errorf("%w: layers claim more than %d dense weights in total", ErrCorrupt, maxModelDense)
		}
		ebBits, err := r.u64()
		if err != nil {
			return nil, err
		}
		l.EB = math.Float64frombits(ebBits)
		nb, err := r.u32()
		if err != nil {
			return nil, err
		}
		if err := r.need(int(nb) * 4); err != nil {
			return nil, err
		}
		l.Bias = make([]float32, nb)
		for j := range l.Bias {
			l.Bias[j] = math.Float32frombits(binary.LittleEndian.Uint32(r.buf[r.off:]))
			r.off += 4
		}
		l.Codec = codec.IDSZ
		if version >= modelVersion2 {
			cb, err := r.byte1()
			if err != nil {
				return nil, err
			}
			l.Codec = codec.ID(cb)
			if _, err := codec.ByID(l.Codec); err != nil {
				return nil, fmt.Errorf("%w: layer %s: %v", ErrCorrupt, l.Name, err)
			}
		}
		var flags byte
		if version >= modelVersion4 {
			if flags, err = r.byte1(); err != nil {
				return nil, err
			}
			if flags&^layerFlagDecodedCRC != 0 {
				return nil, fmt.Errorf("%w: layer %s has unknown flags %#x", ErrCorrupt, l.Name, flags)
			}
		}
		db, err := r.bytes()
		if err != nil {
			return nil, err
		}
		l.DataBlob = append([]byte(nil), db...)
		if version >= modelVersion4 {
			if l.DataCRC, err = r.u32(); err != nil {
				return nil, err
			}
		}
		ib, err := r.byte1()
		if err != nil {
			return nil, err
		}
		l.IndexID = lossless.ID(ib)
		idx, err := r.bytes()
		if err != nil {
			return nil, err
		}
		l.IndexBlob = append([]byte(nil), idx...)
		if version >= modelVersion4 {
			if l.IndexCRC, err = r.u32(); err != nil {
				return nil, err
			}
			l.Checksummed = true
		}
		il, err := r.u32()
		if err != nil {
			return nil, err
		}
		l.IndexLen = int(il)
		if flags&layerFlagDecodedCRC != 0 {
			l.HasDecodedCRC = true
			if l.DecodedCRC, err = r.u32(); err != nil {
				return nil, err
			}
		}
		m.Layers = append(m.Layers, l)
	}
	// Duplicate names would make every by-name lookup (Apply, the serving
	// decode cache) ambiguous; no writer produces them.
	m.buildIndex()
	if len(m.index) != len(m.Layers) {
		return nil, fmt.Errorf("%w: duplicate layer names", ErrCorrupt)
	}
	return m, nil
}

// Generate performs DeepSZ step 4: compress every selected layer of net
// (cfg.Layers) with the plan's error bounds (the plan's codec on data
// arrays, best-fit lossless on index arrays) and package the result. Layers
// are compressed by a bounded worker pool (cfg.Workers); the output is
// ordered by the network's layer order and is byte-identical regardless of
// worker count.
func Generate(net *nn.Network, plan *Plan, cfg Config) (*Model, error) {
	if err := (&cfg).fill(); err != nil {
		return nil, err
	}
	byLayer := map[string]Choice{}
	for _, c := range plan.Choices {
		byLayer[c.Layer] = c
	}
	layers := selectLayers(net, cfg.Layers)
	for _, cl := range layers {
		if _, ok := byLayer[cl.Name()]; !ok {
			return nil, fmt.Errorf("core: plan has no choice for layer %s", cl.Name())
		}
	}

	blobs := make([]LayerBlob, len(layers))
	errs := make([]error, len(layers))
	workers := cfg.Workers
	if workers > len(layers) {
		workers = len(layers)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for li := range jobs {
				blobs[li], errs[li] = generateLayer(layers[li], byLayer[layers[li].Name()], cfg)
			}
		}()
	}
	for li := range layers {
		jobs <- li
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	m := &Model{NetName: net.Name(), Layers: blobs}
	m.buildIndex()
	// Unmarshal rejects duplicate layer names as corrupt; refusing to
	// produce them here keeps every Generate output readable by ReadModel.
	if len(m.index) != len(m.Layers) {
		return nil, fmt.Errorf("core: network %s has duplicate layer names", net.Name())
	}
	return m, nil
}

// generateLayer compresses one layer: the codec on the sparse data array,
// best-fit lossless on the index array. Pure function of its inputs, which
// is what makes Generate's output independent of scheduling. Every blob is
// stamped with its CRC32C; accuracy-critical layers (per the plan's
// measured sensitivity and cfg's checksum mode) additionally get a
// checksum over the bytes a decoder will reconstruct, computed by running
// the real decompressor so the reference is exactly what DecodeLayer
// produces.
func generateLayer(cl nn.Compressible, c Choice, cfg Config) (LayerBlob, error) {
	id := c.Codec
	if id == 0 {
		id = cfg.Codec
	}
	cdc, err := codec.ByID(id)
	if err != nil {
		return LayerBlob{}, fmt.Errorf("core: layer %s: %w", cl.Name(), err)
	}
	sp := prune.Encode(cl.Weights())
	dataBlob, err := cdc.Compress(sp.Data, cfg.codecOptions(c.EB))
	if err != nil {
		return LayerBlob{}, fmt.Errorf("core: compressing %s: %w", cl.Name(), err)
	}
	comp, idxBlob := lossless.Best(sp.Index)
	blob := LayerBlob{
		Name:        cl.Name(),
		Kind:        cl.Kind(),
		Shape:       append([]int(nil), cl.WeightShape()...),
		EB:          c.EB,
		Codec:       id,
		Bias:        append([]float32(nil), cl.BiasParam().W.Data...),
		DataBlob:    dataBlob,
		DataCRC:     crc32c(dataBlob),
		IndexID:     comp.ID(),
		IndexBlob:   idxBlob,
		IndexCRC:    crc32c(idxBlob),
		IndexLen:    len(sp.Index),
		Checksummed: true,
	}
	if cfg.wantDecodedChecksum(c) {
		// The decoded checksum must match what a reader reconstructs, not
		// what the writer started from: lossy codecs round values, so the
		// reference pass decompresses our own blob. Codecs are
		// deterministic, so this equals every future decode exactly.
		dec, err := cdc.Decompress(dataBlob)
		if err != nil {
			return LayerBlob{}, fmt.Errorf("core: verifying %s: %w", cl.Name(), err)
		}
		dense, err := (&prune.Sparse{N: blob.WeightCount(), Data: dec, Index: sp.Index}).Decode()
		if err != nil {
			return LayerBlob{}, fmt.Errorf("core: verifying %s: %w", cl.Name(), err)
		}
		blob.DecodedCRC = DecodedChecksum(dense, blob.Bias)
		blob.HasDecodedCRC = true
	}
	return blob, nil
}

// DecodeBreakdown reports where decoding time went (paper Figure 7b). With
// parallel decoding the durations are summed across workers, i.e. they are
// CPU time per stage, not wall time.
type DecodeBreakdown struct {
	Lossless    time.Duration // index-array lossless decompression
	Lossy       time.Duration // data-array lossy decompression
	Reconstruct time.Duration // two-array → dense or CSR reconstruction, decoded checksum included
}

// DecodedLayer is one reconstructed layer, in one of two forms: dense
// (Weights set) or CSR (Sparse set; rows = Shape[0], cols = the product of
// the remaining dimensions — the layout every forward kernel consumes).
// Decode and StreamDecode always produce the dense form; DecodeLayer picks
// the form by density, during the decode itself.
type DecodedLayer struct {
	Name    string
	Kind    nn.LayerKind
	Shape   []int
	Weights []float32   // dense, flat (product of Shape entries); nil when Sparse is set
	Sparse  *tensor.CSR // CSR form; nil when dense
	Bias    []float32
	// Density is the fraction of nonzero weights, counted by the decode
	// that produced the layer (zero on a hand-assembled one).
	Density float64
}

// Decode reverses Generate with one worker per CPU: lossless-decompress the
// index arrays, codec-decompress the data arrays, and rebuild each dense
// weight tensor. Layer order matches storage order regardless of workers.
func (m *Model) Decode() ([]DecodedLayer, DecodeBreakdown, error) {
	return m.DecodeWith(runtime.GOMAXPROCS(0))
}

// DecodeWith is Decode with an explicit worker count (≤ 1 decodes
// serially). The decoded layers are identical to a serial decode; only the
// wall time changes.
func (m *Model) DecodeWith(workers int) ([]DecodedLayer, DecodeBreakdown, error) {
	var bd DecodeBreakdown
	out := make([]DecodedLayer, len(m.Layers))
	errs := make([]error, len(m.Layers))
	if workers > len(m.Layers) {
		workers = len(m.Layers)
	}
	if workers < 1 {
		workers = 1
	}
	var mu sync.Mutex
	var failed atomic.Bool // fail fast: corrupt input must not cost a full decode
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for li := range jobs {
				if failed.Load() {
					continue
				}
				dl, lbd, err := decodeLayerBlob(&m.Layers[li], 0)
				out[li], errs[li] = dl, err
				if err != nil {
					failed.Store(true)
				}
				mu.Lock()
				bd.Lossless += lbd.Lossless
				bd.Lossy += lbd.Lossy
				bd.Reconstruct += lbd.Reconstruct
				mu.Unlock()
			}
		}()
	}
	for li := range m.Layers {
		if failed.Load() {
			break
		}
		jobs <- li
	}
	close(jobs)
	wg.Wait()
	// Report the lowest-indexed recorded error; layers after a failure may
	// have been skipped, so only the success path is byte-deterministic.
	for _, err := range errs {
		if err != nil {
			return nil, bd, err
		}
	}
	return out, bd, nil
}

// decodeLayerBlob reconstructs one layer and times each stage; the layer
// comes back as CSR when its density is below sparseBelow and dense
// otherwise (always dense for sparseBelow <= 0). On checksummed layers
// every stored blob's CRC is verified before its decompressor touches the
// bytes, and the decoded checksum (when the layer carries one) is verified
// during reconstruction — so a corrupt blob, a mismatched structure, or a
// decode-path fault all surface as a CorruptError naming the layer and the
// surface, never as wrong weights.
func decodeLayerBlob(l *LayerBlob, sparseBelow float64) (DecodedLayer, DecodeBreakdown, error) {
	var bd DecodeBreakdown
	t0 := time.Now()
	if l.Checksummed {
		if got := crc32c(l.IndexBlob); got != l.IndexCRC {
			return DecodedLayer{}, bd, &CorruptError{Layer: l.Name, Kind: CorruptBlob,
				Detail: fmt.Sprintf("index blob CRC %08x, stream says %08x", got, l.IndexCRC)}
		}
		if got := crc32c(l.DataBlob); got != l.DataCRC {
			return DecodedLayer{}, bd, &CorruptError{Layer: l.Name, Kind: CorruptBlob,
				Detail: fmt.Sprintf("data blob CRC %08x, stream says %08x", got, l.DataCRC)}
		}
	}
	comp, err := lossless.ByID(l.IndexID)
	if err != nil {
		return DecodedLayer{}, bd, fmt.Errorf("core: layer %s: %w", l.Name, err)
	}
	idx, err := comp.Decompress(l.IndexBlob)
	if err != nil {
		return DecodedLayer{}, bd, &CorruptError{Layer: l.Name, Kind: CorruptBlob,
			Detail: "index: " + err.Error()}
	}
	if len(idx) != l.IndexLen {
		return DecodedLayer{}, bd, &CorruptError{Layer: l.Name, Kind: CorruptBlob,
			Detail: fmt.Sprintf("index length %d, want %d", len(idx), l.IndexLen)}
	}
	t1 := time.Now()
	bd.Lossless = t1.Sub(t0)

	cdc, err := codec.ByID(l.Codec)
	if err != nil {
		return DecodedLayer{}, bd, fmt.Errorf("core: layer %s: %w", l.Name, err)
	}
	data, err := cdc.Decompress(l.DataBlob)
	if err != nil {
		return DecodedLayer{}, bd, &CorruptError{Layer: l.Name, Kind: CorruptBlob,
			Detail: "data: " + err.Error()}
	}
	t2 := time.Now()
	bd.Lossy = t2.Sub(t1)

	if len(data) != len(idx) {
		return DecodedLayer{}, bd, &CorruptError{Layer: l.Name, Kind: CorruptBlob,
			Detail: fmt.Sprintf("%d data values for %d indices", len(data), len(idx))}
	}
	dl := DecodedLayer{
		Name:  l.Name,
		Kind:  l.Kind,
		Shape: append([]int(nil), l.Shape...),
		Bias:  append([]float32(nil), l.Bias...),
	}
	err = dl.reconstruct(l, idx, data, sparseBelow)
	bd.Reconstruct = time.Since(t2)
	if err != nil {
		return DecodedLayer{}, bd, err
	}
	return dl, bd, nil
}

// Apply loads decoded weights into net's compressible layers (matched by
// name, fc and conv alike).
func (m *Model) Apply(net *nn.Network) (DecodeBreakdown, error) {
	layers, bd, err := m.Decode()
	if err != nil {
		return bd, err
	}
	for _, dl := range layers {
		cl := net.CompressibleByName(dl.Name)
		if cl == nil {
			return bd, fmt.Errorf("core: network %s has no layer %s", net.Name(), dl.Name)
		}
		cl.SetWeights(dl.Weights)
		copy(cl.BiasParam().W.Data, dl.Bias)
	}
	return bd, nil
}
