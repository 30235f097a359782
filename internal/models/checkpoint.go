package models

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"repro/internal/nn"
	"repro/internal/quant"
)

// Checkpointing. A trained APT model is saved with its weights in their
// *quantized, bit-packed* form — the on-device storage story of the
// paper: a model trained to mixed 6–13-bit precision occupies a fraction
// of its fp32 size on flash, not just in RAM during training. fp32
// parameters (and optional master copies) are stored raw; batch-norm
// running statistics are captured alongside so a loaded model evaluates
// identically.
//
// The format is a gob stream of one checkpointFile. The header records
// the architecture (the Build registry name, which Save has always
// written) and, since this revision, the width multiplier — enough for
// LoadAuto to rebuild the matching backbone without the caller naming
// it. Loading restores into a model of the same architecture, matching
// parameters by name. Legacy checkpoints without the width field decode
// with Width 0 and fall back to the caller's value (or the default 1).

type paramRecord struct {
	Name   string
	Shape  []int
	Bits   int
	Packed *quant.Packed // quantized payload; nil for fp32
	Raw    []float32     // fp32 payload; nil when packed
	Master []float32     // optional fp32 master copy
}

type bnRecord struct {
	Name string
	Mean []float64
	Var  []float64
}

type checkpointFile struct {
	Model  string
	Width  float64 // width multiplier; 0 in legacy checkpoints
	Params []paramRecord
	BN     []bnRecord
}

// Save writes the model's state to w.
func Save(w io.Writer, m *Model) error {
	file := checkpointFile{Model: m.Name, Width: m.Width}
	for _, p := range m.Params() {
		rec := paramRecord{Name: p.Name, Shape: p.Value.Shape(), Bits: p.Bits()}
		if p.Q != nil && !p.Q.FullPrecision() {
			packed, err := quant.Pack(p.Value, p.Q)
			if err != nil {
				return fmt.Errorf("models: save %s: %w", p.Name, err)
			}
			rec.Packed = packed
		} else {
			rec.Raw = append([]float32(nil), p.Value.Data()...)
		}
		if p.Master != nil {
			rec.Master = append([]float32(nil), p.Master.Data()...)
		}
		file.Params = append(file.Params, rec)
	}
	for _, bn := range nn.CollectBatchNorms(m.Layers()) {
		mean, variance := bn.RunningStats()
		file.BN = append(file.BN, bnRecord{Name: bn.Name(), Mean: mean, Var: variance})
	}
	if err := gob.NewEncoder(w).Encode(&file); err != nil {
		return fmt.Errorf("models: encode checkpoint: %w", err)
	}
	return nil
}

// Load restores a checkpoint written by Save into m, which must have the
// same architecture (parameter names and shapes).
func Load(r io.Reader, m *Model) error {
	var file checkpointFile
	if err := gob.NewDecoder(r).Decode(&file); err != nil {
		return fmt.Errorf("models: decode checkpoint: %w", err)
	}
	return restore(&file, m)
}

// LoadAuto decodes a checkpoint, builds the architecture its header
// names, and restores the state into it — the serving-side entry point
// that makes explicit -arch/-width flags optional. arch and width, when
// non-zero, override the header (the only way to load a legacy
// checkpoint written before the width field existed at a non-default
// width); cfg supplies the remaining build parameters and its own Width
// is ignored.
func LoadAuto(r io.Reader, arch string, width float64, cfg Config) (*Model, error) {
	var file checkpointFile
	if err := gob.NewDecoder(r).Decode(&file); err != nil {
		return nil, fmt.Errorf("models: decode checkpoint: %w", err)
	}
	if arch == "" {
		if file.Model == "" {
			return nil, fmt.Errorf("models: checkpoint has no architecture header; pass one explicitly")
		}
		arch = file.Model
	}
	if width == 0 {
		width = file.Width // 0 in legacy checkpoints: Config.fill defaults it to 1
	}
	cfg.Width = width
	m, err := Build(arch, cfg)
	if err != nil {
		return nil, err
	}
	if err := restore(&file, m); err != nil {
		return nil, err
	}
	return m, nil
}

// LoadAutoFile is LoadAuto from a checkpoint file on disk — the shape
// serving needs for boot and for hot reload (aptserve re-reads the path
// on SIGHUP / POST /admin/reload, so a newly trained checkpoint swapped
// in under the same name is picked up without a restart). When the file
// carries a version/CRC trailer (SaveFileAtomic writes one), the payload
// is verified before decoding: a torn or corrupt write fails with
// ErrCorruptCheckpoint instead of a confusing partial-decode error, and
// the serving reload path retries rather than swapping in garbage.
func LoadAutoFile(path, arch string, width float64, cfg Config) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, _, _, err := splitTrailer(data)
	if err != nil {
		return nil, fmt.Errorf("models: load %s: %w", path, err)
	}
	m, err := LoadAuto(bytes.NewReader(payload), arch, width, cfg)
	if err != nil {
		return nil, fmt.Errorf("models: load %s: %w", path, err)
	}
	return m, nil
}

// restore copies a decoded checkpoint into m, which must match its
// architecture (model name, parameter names and shapes).
func restore(file *checkpointFile, m *Model) error {
	if file.Model != m.Name {
		return fmt.Errorf("models: checkpoint is for %q, model is %q", file.Model, m.Name)
	}
	byName := make(map[string]*nn.Param, len(m.Params()))
	for _, p := range m.Params() {
		byName[p.Name] = p
	}
	for _, rec := range file.Params {
		p, ok := byName[rec.Name]
		if !ok {
			return fmt.Errorf("models: checkpoint parameter %q not in model", rec.Name)
		}
		switch {
		case rec.Packed != nil:
			v, err := rec.Packed.Unpack(rec.Shape...)
			if err != nil {
				return fmt.Errorf("models: load %s: %w", rec.Name, err)
			}
			if err := p.Value.CopyFrom(v); err != nil {
				return fmt.Errorf("models: load %s: %w", rec.Name, err)
			}
			st, err := quant.NewState(rec.Bits)
			if err != nil {
				return fmt.Errorf("models: load %s: %w", rec.Name, err)
			}
			st.Refresh(p.Value)
			p.Q = st
		case rec.Raw != nil:
			if len(rec.Raw) != p.Value.Len() {
				return fmt.Errorf("models: load %s: %d values for %d elements", rec.Name, len(rec.Raw), p.Value.Len())
			}
			copy(p.Value.Data(), rec.Raw)
			p.Q = nil
		default:
			return fmt.Errorf("models: load %s: empty record", rec.Name)
		}
		if rec.Master != nil {
			p.EnableMaster()
			copy(p.Master.Data(), rec.Master)
		} else {
			p.Master = nil
		}
		delete(byName, rec.Name)
	}
	if len(byName) > 0 {
		for name := range byName {
			return fmt.Errorf("models: checkpoint missing parameter %q", name)
		}
	}
	bnByName := make(map[string]*nn.BatchNorm2D)
	for _, bn := range nn.CollectBatchNorms(m.Layers()) {
		bnByName[bn.Name()] = bn
	}
	for _, rec := range file.BN {
		bn, ok := bnByName[rec.Name]
		if !ok {
			return fmt.Errorf("models: checkpoint batch-norm %q not in model", rec.Name)
		}
		if err := bn.SetRunningStats(rec.Mean, rec.Var); err != nil {
			return fmt.Errorf("models: load %s: %w", rec.Name, err)
		}
	}
	return nil
}
