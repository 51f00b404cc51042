package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"vega/internal/faultinject"
	"vega/internal/model"
	"vega/internal/obs"
)

// Checkpoint files are self-verifying: a fixed header carries a magic
// string, a format version, the payload length, and a SHA-256 digest of
// the gob payload, so a truncated or bit-flipped file fails Load with a
// typed error instead of a garbled gob decode. Writes are atomic (temp
// file in the destination directory, fsync, rename), so a crash mid-save
// never clobbers the previous checkpoint.
var (
	// ErrCheckpointFormat marks a file that is not a vega checkpoint.
	ErrCheckpointFormat = errors.New("core: not a vega checkpoint")
	// ErrCheckpointVersion marks an unsupported format version.
	ErrCheckpointVersion = errors.New("core: unsupported checkpoint version")
	// ErrCheckpointCorrupt marks truncation or checksum mismatch.
	ErrCheckpointCorrupt = errors.New("core: checkpoint corrupt")
	// ErrCheckpointArch marks a checkpoint whose architecture or
	// parameter shapes do not fit the pipeline loading it.
	ErrCheckpointArch = errors.New("core: checkpoint architecture mismatch")
)

var ckptMagic = [8]byte{'V', 'E', 'G', 'A', 'C', 'K', 'P', 'T'}

const ckptVersion = 1

// ckptHeaderLen is magic(8) + version(4) + payload length(8) + sha256(32).
const ckptHeaderLen = 8 + 4 + 8 + sha256.Size

// checkpoint is the serialized form of a trained pipeline: the vocabulary
// and model weights. Stage-1 state (templates, features, splits) is
// deterministic from the corpus and the seed, so it is rebuilt on load.
type checkpoint struct {
	Arch      string
	ModelCfg  model.Config
	Pieces    []string
	ForceChar []string
	Params    [][]float32
}

// Save writes the trained model and vocabulary to path.
func (p *Pipeline) Save(path string) error {
	span := p.Cfg.Obs.StartSpan("checkpoint/save", obs.String("path", path))
	defer span.End()
	if p.Model == nil || p.Vocab == nil {
		return fmt.Errorf("core: nothing trained to save")
	}
	ck := checkpoint{
		Arch:      p.Cfg.Arch,
		ModelCfg:  p.modelConfig(),
		Pieces:    p.Vocab.Pieces(),
		ForceChar: p.Vocab.ForceCharList(),
	}
	for _, t := range p.Model.Params() {
		ck.Params = append(ck.Params, append([]float32{}, t.Data...))
	}
	return writeCheckpointFile(path, &ck, p.Cfg.Obs)
}

// writeCheckpointFile encodes ck and writes it atomically: the bytes land
// in a temp file in the destination directory, are fsynced, and only then
// renamed over path, so a crash mid-write leaves any previous checkpoint
// intact.
func writeCheckpointFile(path string, ck *checkpoint, o *obs.Obs) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(ck); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	buf := sealCheckpoint(payload.Bytes())

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("core: save: %w", err)
	}
	fsyncStart := time.Now()
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("core: save: %w", err)
	}
	o.Histogram("ckpt.fsync_seconds").Observe(time.Since(fsyncStart).Seconds())
	o.Counter("ckpt.bytes_written").Add(float64(len(buf)))
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	if faultinject.Should(faultinject.CheckpointCorrupt, path) {
		if err := flipCheckpointByte(path); err != nil {
			return fmt.Errorf("core: faultinject: %w", err)
		}
	}
	return nil
}

// sealCheckpoint prefixes a gob payload with the checkpoint header.
func sealCheckpoint(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	buf := make([]byte, 0, ckptHeaderLen+len(payload))
	buf = append(buf, ckptMagic[:]...)
	buf = binary.BigEndian.AppendUint32(buf, ckptVersion)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, sum[:]...)
	return append(buf, payload...)
}

// flipCheckpointByte flips one bit of the first payload byte in place —
// the CheckpointCorrupt fault used to prove Load's checksum detection.
func flipCheckpointByte(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], ckptHeaderLen); err != nil {
		return err
	}
	b[0] ^= 0x01
	_, err = f.WriteAt(b[:], ckptHeaderLen)
	return err
}

// readCheckpointFile reads and verifies a checkpoint written by
// writeCheckpointFile, returning typed errors on malformed input.
func readCheckpointFile(path string) (*checkpoint, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	if len(raw) < ckptHeaderLen {
		if len(raw) < len(ckptMagic) || !bytes.Equal(raw[:len(ckptMagic)], ckptMagic[:]) {
			return nil, fmt.Errorf("%w: %s", ErrCheckpointFormat, path)
		}
		return nil, fmt.Errorf("%w: %s: truncated header", ErrCheckpointCorrupt, path)
	}
	if !bytes.Equal(raw[:len(ckptMagic)], ckptMagic[:]) {
		return nil, fmt.Errorf("%w: %s", ErrCheckpointFormat, path)
	}
	version := binary.BigEndian.Uint32(raw[8:12])
	if version != ckptVersion {
		return nil, fmt.Errorf("%w: %s: version %d", ErrCheckpointVersion, path, version)
	}
	plen := binary.BigEndian.Uint64(raw[12:20])
	payload := raw[ckptHeaderLen:]
	if uint64(len(payload)) != plen {
		return nil, fmt.Errorf("%w: %s: payload %d bytes, header says %d",
			ErrCheckpointCorrupt, path, len(payload), plen)
	}
	var want [sha256.Size]byte
	copy(want[:], raw[20:ckptHeaderLen])
	if sha256.Sum256(payload) != want {
		return nil, fmt.Errorf("%w: %s: checksum mismatch", ErrCheckpointCorrupt, path)
	}
	var ck checkpoint
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&ck); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCheckpointCorrupt, path, err)
	}
	return &ck, nil
}

// checkModelConfig rejects a checkpoint whose model config cannot size
// the model its parameters came from, before any construction allocates
// from it: a zero head count would divide by zero at the first encode,
// a head count that does not divide Dim would drop columns, and a
// negative or inflated Dim, Vocab or MaxSeq would panic or exhaust memory
// in the constructor (the decoder pools MaxSeq×Dim blocks per decode).
// Every architecture stores its Vocab×Dim token embedding first; those
// with positions store the MaxSeq×Dim table second, and each of their
// layers stores at least one tensor, the FFN's Dim×FFMult·Dim weight
// among them, so an inflated layer count or FFMult is caught here too.
func checkModelConfig(ck *checkpoint) error {
	c := ck.ModelCfg
	for _, f := range []struct {
		name string
		v    int
	}{{"Vocab", c.Vocab}, {"Dim", c.Dim}, {"Heads", c.Heads}, {"EncLayers", c.EncLayers},
		{"DecLayers", c.DecLayers}, {"FFMult", c.FFMult}, {"MaxSeq", c.MaxSeq}} {
		if f.v <= 0 {
			return fmt.Errorf("%w: model %s %d is not positive", ErrCheckpointArch, f.name, f.v)
		}
	}
	if c.Dim%c.Heads != 0 {
		return fmt.Errorf("%w: %d heads do not divide Dim %d", ErrCheckpointArch, c.Heads, c.Dim)
	}
	// Compare by division, so an inflated field cannot overflow a product.
	sized := func(n, rows int) bool { return n%c.Dim == 0 && n/c.Dim == rows }
	if len(ck.Params) == 0 || !sized(len(ck.Params[0]), c.Vocab) {
		return fmt.Errorf("%w: embedding does not hold Vocab %d × Dim %d", ErrCheckpointArch, c.Vocab, c.Dim)
	}
	if ck.Arch == "gru" {
		return nil // one GRU cell each way: no positions, layers or FFN
	}
	if len(ck.Params) < 2 || !sized(len(ck.Params[1]), c.MaxSeq) {
		return fmt.Errorf("%w: positional table does not hold MaxSeq %d × Dim %d", ErrCheckpointArch, c.MaxSeq, c.Dim)
	}
	if c.EncLayers > len(ck.Params) || c.DecLayers > len(ck.Params)-c.EncLayers {
		return fmt.Errorf("%w: %d+%d layers exceed %d stored tensors",
			ErrCheckpointArch, c.EncLayers, c.DecLayers, len(ck.Params))
	}
	largest := 0
	for _, t := range ck.Params {
		largest = max(largest, len(t))
	}
	if largest/c.Dim/c.Dim < c.FFMult {
		return fmt.Errorf("%w: FFN Dim %d × FFMult %d × Dim exceeds the largest stored tensor (%d)",
			ErrCheckpointArch, c.Dim, c.FFMult, largest)
	}
	return nil
}

// Load restores a trained model and vocabulary saved with Save. The
// pipeline must have been built over the same corpus with the same seed.
func (p *Pipeline) Load(path string) error {
	span := p.Cfg.Obs.StartSpan("checkpoint/load", obs.String("path", path))
	defer span.End()
	ck, err := readCheckpointFile(path)
	if err != nil {
		return err
	}
	if o := p.Cfg.Obs; o != nil {
		if fi, statErr := os.Stat(path); statErr == nil {
			o.Counter("ckpt.bytes_read").Add(float64(fi.Size()))
		}
	}
	vocab := model.VocabFromPieces(ck.Pieces, ck.ForceChar)
	if vocab.Size() != ck.ModelCfg.Vocab {
		return fmt.Errorf("%w: vocab size %d != config %d",
			ErrCheckpointCorrupt, vocab.Size(), ck.ModelCfg.Vocab)
	}
	if err := checkModelConfig(ck); err != nil {
		return err
	}
	m, err := newModel(ck.Arch, ck.ModelCfg, p.Cfg.MaxOutPieces)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrCheckpointArch, err)
	}
	params := m.Params()
	if len(params) != len(ck.Params) {
		return fmt.Errorf("%w: parameter count %d != %d",
			ErrCheckpointArch, len(ck.Params), len(params))
	}
	for i, t := range params {
		if len(t.Data) != len(ck.Params[i]) {
			return fmt.Errorf("%w: parameter %d size mismatch", ErrCheckpointArch, i)
		}
		copy(t.Data, ck.Params[i])
	}
	// All checks passed: only now mutate the pipeline, so a failed Load
	// leaves any previously loaded model untouched.
	p.Vocab = vocab
	p.Model = m
	p.Cfg.Arch = ck.Arch
	p.Cfg.Model = ck.ModelCfg
	return nil
}
