package model

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// serializedTransformer is the JSON artifact layout for a trained
// Transformer. Adam moments are deliberately dropped: a loaded model serves
// inference; resuming training restarts the optimizer.
type serializedTransformer struct {
	Version int               `json:"version"`
	Config  TransformerConfig `json:"config"`
	Vocab   int               `json:"vocab"`
	EOS     Token             `json:"eos"`
	Params  [][][]float64     `json:"params"` // registry order
}

const transformerVersion = 1

// Save writes the model parameters as JSON.
func (t *Transformer) Save(w io.Writer) error {
	s := serializedTransformer{
		Version: transformerVersion,
		Config:  t.cfg,
		Vocab:   t.vocab,
		EOS:     t.eosTok,
	}
	for _, p := range t.params {
		s.Params = append(s.Params, p.val)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&s)
}

// maxParam bounds every loaded parameter's magnitude. Trained weights sit
// orders of magnitude below it, and under it no activation of the forward
// can overflow, so an accepted artifact always scores finite rows.
const maxParam = 1e6

// LoadTransformer reads a model saved by Save. An artifact is outside input,
// so its fields and parameter count are checked against its config before
// anything config-sized is allocated, and then every tensor's shape.
func LoadTransformer(r io.Reader) (*Transformer, error) {
	var s serializedTransformer
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("model: decode transformer: %w", err)
	}
	cfg := s.Config
	cfg.defaults()
	held := 0
	for _, p := range s.Params {
		for _, row := range p {
			held += len(row)
		}
	}
	switch {
	case s.Version != transformerVersion:
		return nil, fmt.Errorf("model: transformer artifact version %d, want %d", s.Version, transformerVersion)
	case s.Vocab <= 0:
		return nil, fmt.Errorf("model: invalid vocab %d", s.Vocab)
	case s.EOS < 0 || s.EOS >= s.Vocab:
		return nil, fmt.Errorf("model: eos %d outside vocab %d", s.EOS, s.Vocab)
	case cfg.DModel%cfg.NHeads != 0:
		return nil, fmt.Errorf("model: DModel %d is not a multiple of NHeads %d", cfg.DModel, cfg.NHeads)
	case cfg.DFF <= 0 || cfg.size(s.Vocab) != float64(held):
		return nil, fmt.Errorf("model: artifact holds %d parameters, config requires %.0f", held, cfg.size(s.Vocab))
	}
	t := NewTransformer(s.Vocab, s.EOS, s.Config)
	if len(s.Params) != len(t.params) {
		return nil, fmt.Errorf("model: artifact has %d parameter tensors, config requires %d", len(s.Params), len(t.params))
	}
	for i, saved := range s.Params {
		dst := t.params[i].val
		if len(saved) != len(dst) {
			return nil, fmt.Errorf("model: tensor %d has %d rows, want %d", i, len(saved), len(dst))
		}
		for r, row := range saved {
			if len(row) != len(dst[r]) {
				return nil, fmt.Errorf("model: tensor %d row %d has %d cols, want %d", i, r, len(row), len(dst[r]))
			}
			for _, x := range row {
				if math.Abs(x) > maxParam {
					return nil, fmt.Errorf("model: tensor %d row %d holds %g, beyond ±%g", i, r, x, maxParam)
				}
			}
			copy(dst[r], row)
		}
	}
	return t, nil
}

// size is the number of floats a defaulted config's parameters hold. It
// counts in float64, so no config overflows it (past 2⁵³ it is inexact, but
// far beyond any artifact); only the default DFF = 4*DModel can wrap.
func (c TransformerConfig) size(vocab int) float64 {
	d, f := float64(c.DModel), float64(c.DFF)
	perLayer := 4*d*d + 2*d*f + 9*d + f
	return (float64(vocab)+float64(c.MaxSeqLen))*d + float64(c.NLayers)*perLayer + 2*d
}
