package tokenizer

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

func TestBPESaveLoadRoundTrip(t *testing.T) {
	orig := Train(trainingCorpus(), 200)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBPE(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.VocabSize() != orig.VocabSize() {
		t.Fatalf("vocab size %d != %d", loaded.VocabSize(), orig.VocabSize())
	}
	if loaded.EOS() != orig.EOS() {
		t.Fatalf("EOS %d != %d", loaded.EOS(), orig.EOS())
	}
	for i := 0; i < orig.VocabSize(); i++ {
		if loaded.TokenBytes(i) != orig.TokenBytes(i) {
			t.Fatalf("token %d surface %q != %q", i, loaded.TokenBytes(i), orig.TokenBytes(i))
		}
	}
	// Encodings must be identical.
	for _, s := range []string{"The cat sat", "unseen zz 123!", "", "https://www.example.com/page"} {
		a, b := orig.Encode(s), loaded.Encode(s)
		if len(a) != len(b) {
			t.Fatalf("encode %q differs after reload", s)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("encode %q differs after reload at %d", s, i)
			}
		}
	}
}

func TestLoadBPERejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"",
		"not json",
		`{"format":"wrong","merges":[]}`,
		`{"format":"relm-bpe-v1","merges":[[999999,0]]}`,
		`{"format":"relm-bpe-v1","merges":[[-1,0]]}`,
	} {
		if _, err := LoadBPE(strings.NewReader(in)); err == nil {
			t.Errorf("LoadBPE(%q) should fail", in)
		}
	}
}

func TestLoadBPEEmptyMerges(t *testing.T) {
	b := Train(nil, 0)
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBPE(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.VocabSize() != 257 {
		t.Errorf("byte-only vocab = %d, want 257", loaded.VocabSize())
	}
}

// FuzzLoadBPE: a tokenizer artifact is outside input (relm-serve -model,
// relm -artifacts). LoadBPE must never panic, and a tokenizer it accepts
// must encode text to tokens of its vocabulary, never EOS, that decode back
// to the text and are canonical, and encode it the same after Save and a
// reload. The seed corpus (a valid small artifact and one seed per rejected
// defect) is under testdata/fuzz/FuzzLoadBPE.
func FuzzLoadBPE(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := LoadBPE(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := b.Save(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := LoadBPE(&buf)
		if err != nil {
			t.Fatalf("a saved tokenizer does not load: %v", err)
		}
		if again.VocabSize() != b.VocabSize() || again.EOS() != b.EOS() || b.EOS() != b.VocabSize()-1 {
			t.Fatalf("vocab %d, eos %d; reloaded vocab %d, eos %d", b.VocabSize(), b.EOS(), again.VocabSize(), again.EOS())
		}
		texts := []string{"", "The cat sat on the mat.", "https://www.example.com/page", "a  b\n\tc", "\xff\x00 z"}
		for i := 0; i < b.VocabSize()-1 && i < 512; i += 37 {
			texts = append(texts, b.TokenBytes(i)+" "+b.TokenBytes(b.VocabSize()-2-i))
		}
		for _, s := range texts {
			toks := b.Encode(s)
			for _, tok := range toks {
				if tok < 0 || tok >= b.EOS() {
					t.Fatalf("Encode(%q) = %v: token %d outside the vocabulary", s, toks, tok)
				}
			}
			if got := b.Decode(toks); got != s {
				t.Fatalf("Decode(Encode(%q)) = %q", s, got)
			}
			if !b.Canonical(toks) {
				t.Fatalf("Encode(%q) = %v is not canonical", s, toks)
			}
			if got := again.Encode(s); !slices.Equal(got, toks) {
				t.Fatalf("Encode(%q) = %v, after Save and reload %v", s, toks, got)
			}
		}
	})
}
