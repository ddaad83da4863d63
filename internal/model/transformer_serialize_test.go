package model

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"
)

func TestTransformerSaveLoadRoundTrip(t *testing.T) {
	orig := tinyTransformer(17)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTransformer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.VocabSize() != orig.VocabSize() || loaded.EOS() != orig.EOS() || loaded.MaxSeqLen() != orig.MaxSeqLen() {
		t.Fatal("identity fields differ after round trip")
	}
	ctxs := [][]Token{{}, {1}, {3, 1, 4, 1, 5}}
	for _, ctx := range ctxs {
		a := orig.NextLogProbs(ctx)
		b := loaded.NextLogProbs(ctx)
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-12 {
				t.Fatalf("ctx %v token %d: %g vs %g", ctx, i, a[i], b[i])
			}
		}
	}
}

func TestLoadTransformerRejectsGarbage(t *testing.T) {
	if _, err := LoadTransformer(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadTransformer(strings.NewReader(`{"version":99}`)); err == nil {
		t.Error("wrong version accepted")
	}
	if _, err := LoadTransformer(strings.NewReader(`{"version":1,"vocab":0}`)); err == nil {
		t.Error("zero vocab accepted")
	}
	if _, err := LoadTransformer(strings.NewReader(`{"version":1,"vocab":5,"eos":4,"config":{"DModel":8},"params":[]}`)); err == nil {
		t.Error("missing tensors accepted")
	}

	var buf bytes.Buffer
	if err := tinyTransformer(9).Save(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.String()
	for _, c := range []struct{ name, old, new string }{
		// The first query would index the vocabulary with it and panic.
		{"eos outside the vocabulary", `"eos":8`, `"eos":98`},
		{"negative eos", `"eos":8`, `"eos":-1`},
		// dHead would truncate and attention would skip dimensions.
		{"DModel not a multiple of NHeads", `"NHeads":2`, `"NHeads":16`},
	} {
		corrupt := strings.Replace(valid, c.old, c.new, 1)
		if corrupt == valid {
			t.Fatalf("%s: %q not in the artifact", c.name, c.old)
		}
		if _, err := LoadTransformer(strings.NewReader(corrupt)); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}

	// Finite but huge weights overflow the forward: these two make every
	// attention score +Inf and every row NaN.
	huge := tinyTransformer(9)
	huge.blks[0].bq.val[0][0], huge.blks[0].bk.val[0][0] = 1e300, 1e300
	buf.Reset()
	if err := huge.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTransformer(&buf); err == nil {
		t.Error("parameter beyond the bound accepted")
	}

	// A config claiming a window its params do not hold must fail before
	// anything config-sized is allocated (1<<20 positions x 8 would be
	// 64 MiB per copy of the position table).
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := LoadTransformer(strings.NewReader(`{"version":1,"vocab":5,"eos":4,"config":{"DModel":8,"MaxSeqLen":1048576},"params":[]}`))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("oversized window accepted")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("rejecting an oversized window allocated %d bytes", n)
	}
}

// FuzzLoadTransformer feeds arbitrary bytes to LoadTransformer. It must never
// panic, and an artifact it accepts must score the empty context to a finite,
// normalized row. The seed corpus (testdata/fuzz/FuzzLoadTransformer) holds a
// valid tiny artifact and one seed per defect the loader rejects.
func FuzzLoadTransformer(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		lm, err := LoadTransformer(bytes.NewReader(data))
		if err != nil {
			return
		}
		lp := lm.NextLogProbs(nil)
		if len(lp) != lm.VocabSize() {
			t.Fatalf("row has %d entries for vocab %d", len(lp), lm.VocabSize())
		}
		for v, x := range lp {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("token %d: log-prob %v", v, x)
			}
		}
		if z := LogSumExp(lp); math.Abs(z) > 1e-9 {
			t.Fatalf("row not normalized: logZ %g", z)
		}
	})
}

func TestLoadTransformerRejectsShapeMismatch(t *testing.T) {
	orig := tinyTransformer(9)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt: claim a different vocab so tensor 0's rows mismatch.
	s := buf.String()
	s = strings.Replace(s, `"vocab":9`, `"vocab":12`, 1)
	if _, err := LoadTransformer(strings.NewReader(s)); err == nil {
		t.Error("row mismatch accepted")
	}
}
