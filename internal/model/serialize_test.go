package model

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestNGramSaveLoadRoundTrip(t *testing.T) {
	tok := testTok(t)
	orig := TrainNGram([]string{
		"the cat sat on the mat",
		"the dog sat on the mat",
	}, tok, NGramConfig{Order: 4, MaxSeqLen: 32, Lambda: 0.8, Alpha: 0.3, CacheWeight: 0.2})

	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadNGram(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.VocabSize() != orig.VocabSize() || loaded.EOS() != orig.EOS() ||
		loaded.MaxSeqLen() != orig.MaxSeqLen() {
		t.Fatal("metadata changed across reload")
	}
	// Distributions must match exactly on several contexts.
	ctxs := [][]Token{
		nil,
		tok.Encode("the cat"),
		tok.Encode("the dog sat"),
		{1, 2, 3},
	}
	for _, ctx := range ctxs {
		a, b := orig.NextLogProbs(ctx), loaded.NextLogProbs(ctx)
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-12 {
				t.Fatalf("log prob differs after reload at ctx %v token %d: %f vs %f", ctx, i, a[i], b[i])
			}
		}
	}
}

func TestLoadNGramRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"",
		"{}",
		`{"format":"wrong"}`,
		`{"format":"relm-ngram-v1","order":0,"vocab":5,"tables":[]}`,
		`{"format":"relm-ngram-v1","order":1,"vocab":5,"tables":[[{"h":[],"t":[99],"c":[1]}]]}`,
		`{"format":"relm-ngram-v1","order":1,"vocab":5,"tables":[[{"h":[],"t":[1],"c":[0]}]]}`,
		`{"format":"relm-ngram-v1","order":1,"vocab":5,"tables":[[{"h":[1],"t":[1],"c":[1]}]]}`,
		`{"format":"relm-ngram-v1","order":1,"vocab":5,"tables":[[{"h":[],"t":[1,2],"c":[1]}]]}`,
	} {
		if _, err := LoadNGram(strings.NewReader(in)); err == nil {
			t.Errorf("LoadNGram(%q) should fail", in)
		}
	}
	// One defect at a time in an artifact that loads: each would let a row
	// be non-normalized, NaN or out of range, or alias two histories.
	const valid = `{"format":"relm-ngram-v1","order":2,"vocab":5,"eos":4,"max_seq_len":8,"lambda":0.8,"alpha":0.5,"cache_weight":0.2,` +
		`"tables":[[{"h":[],"t":[0,1],"c":[2,1]}],[{"h":[0],"t":[1],"c":[1]}]]}`
	if _, err := LoadNGram(strings.NewReader(valid)); err != nil {
		t.Fatalf("the valid artifact: %v", err)
	}
	for _, defect := range [][2]string{
		{`"eos":4`, `"eos":5`},
		{`"vocab":5`, `"vocab":70000`},
		{`"max_seq_len":8`, `"max_seq_len":0`},
		{`"alpha":0.5`, `"alpha":0`},
		{`"alpha":0.5`, `"alpha":1e308`},
		{`"lambda":0.8`, `"lambda":1.5`},
		{`"cache_weight":0.2`, `"cache_weight":-0.1`},
		{`{"h":[0],`, `{"h":[9],`},
		{`{"h":[0],"t":[1],"c":[1]}`, `{"h":[0],"t":[1],"c":[1]},{"h":[0],"t":[2],"c":[1]}`},
		{`"t":[1],"c":[1]`, `"t":[1,1],"c":[1,1]`},
		{`"t":[1],"c":[1]`, `"t":[1,2],"c":[9223372036854775807,1]`},
	} {
		in := strings.Replace(valid, defect[0], defect[1], 1)
		if _, err := LoadNGram(strings.NewReader(in)); err == nil {
			t.Errorf("LoadNGram accepts %s", defect[1])
		}
	}
}

// TestLoadedSeedsMatchReference: every FuzzLoadNGram seed that loads scores
// each context over its histories' tokens bit for bit as the map-of-maps
// scorer does, and saves to bytes that load and save to themselves. Two
// seeds hold artifacts no trainer writes: one lists an order-2 history
// without its order-1 suffix (suffix-unlisted), one lists histories and next
// tokens out of key order (histories-out-of-key-order).
func TestLoadedSeedsMatchReference(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzLoadNGram/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no seeds: %v", err)
	}
	loaded := 0
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		m, err := LoadNGram(strings.NewReader(data))
		if err != nil {
			continue
		}
		loaded++
		var first, second bytes.Buffer
		if err := m.Save(&first); err != nil {
			t.Fatal(err)
		}
		again, err := LoadNGram(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("%s: a saved model does not load: %v", file, err)
		}
		if err := again.Save(&second); err != nil || !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("%s: the saved artifact does not save to itself (%v)", file, err)
		}
		// Every context of up to three of the tokens the tables name.
		toks := []Token{0, m.VocabSize() - 1}
		for _, table := range m.tables() {
			for _, sh := range table {
				toks = append(append(toks, sh.History...), sh.Next...)
			}
		}
		slices.Sort(toks)
		toks = slices.Compact(toks)
		ctxs := [][]Token{nil}
		for lo := 0; lo < len(ctxs) && len(ctxs[lo]) < 3; lo++ {
			for _, tok := range toks {
				ctxs = append(ctxs, append(slices.Clip(ctxs[lo]), tok))
			}
		}
		for _, ctx := range ctxs {
			got, want := m.NextLogProbs(ctx), m.NextLogProbsRef(ctx)
			if !slices.EqualFunc(got, want, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				t.Errorf("%s: context %v scores %v, want %v", file, ctx, got, want)
				break
			}
		}
	}
	if loaded < 3 {
		t.Errorf("%d seeds load, want the valid one and the two unusual ones", loaded)
	}
}

// FuzzLoadNGram: an n-gram artifact is outside input (relm-serve -model,
// relm -artifacts). LoadNGram must never panic, and a model it accepts must
// score contexts over its vocabulary to rows of log-probabilities (one per
// token, none NaN or above 0) that are normalized, and score them the same
// after Save and a reload. The seed corpus (a valid tiny artifact, two
// valid artifacts no trainer writes and one seed per rejected defect) is
// under testdata/fuzz/FuzzLoadNGram.
func FuzzLoadNGram(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadNGram(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := LoadNGram(&buf)
		if err != nil {
			t.Fatalf("a saved model does not load: %v", err)
		}
		vocab := m.VocabSize()
		if eos := m.EOS(); eos < 0 || eos >= vocab || m.MaxSeqLen() < 1 {
			t.Fatalf("eos %d, vocab %d, max_seq_len %d", eos, vocab, m.MaxSeqLen())
		}
		// The empty context, the longest histories the tables hold (each
		// with its last token repeated, for the context cache) and a
		// context of the vocabulary's ends.
		ctxs := [][]Token{nil, {0, vocab - 1, m.EOS(), 0}}
		tables := m.tables()
		for k := len(tables) - 1; k > 0 && len(ctxs) < 6; k-- {
			for _, sh := range tables[k][:min(len(tables[k]), 6-len(ctxs))] {
				h := sh.History
				ctxs = append(ctxs, append(h, h[len(h)-1]))
			}
		}
		for _, ctx := range ctxs {
			lp := m.NextLogProbs(ctx)
			if len(lp) != vocab {
				t.Fatalf("context %v: row has %d entries for vocab %d", ctx, len(lp), vocab)
			}
			for v, x := range lp {
				if math.IsNaN(x) || x > 1e-9 {
					t.Fatalf("context %v, token %d: log-prob %v", ctx, v, x)
				}
			}
			if z := LogSumExp(lp); math.Abs(z) > 1e-9 {
				t.Fatalf("context %v: row not normalized: logZ %g", ctx, z)
			}
			if !slices.Equal(again.NextLogProbs(ctx), lp) {
				t.Fatalf("context %v: row differs after Save and reload", ctx)
			}
		}
	})
}
