package relm

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/tokenizer"
)

// FuzzPlanKey checks the plan and prefix cache keys against what they key.
// From one fuzzed pattern, prefix and knob string it builds a query a, and
//   - a copy of a that differs only in fields compilePattern ignores — the
//     prefix and every execution knob — must get a's planKey and compile to
//     a's products: the token automaton and the presence of the
//     dynamic filter;
//   - a copy that differs in every field but the prefix and its two budgets
//     must get a's prefixKey and compile to a's prefix products;
//   - a query built from the other string and the knobs read backwards that
//     shares a key with a must share the products too;
//   - a with a RemoveWords filter whose words are the other string cut at
//     knob-chosen positions keys apart from a's query with a different cut
//     of the same bytes, and shares its key and products with an equal list.
//
// Patterns and prefixes are short, but a canonical pattern of up to 50 000
// strings is enumerated, as a query would. The seed corpus is under
// testdata/fuzz/FuzzPlanKey.
func FuzzPlanKey(f *testing.F) {
	lines := []string{"the cat sat", "the dog sat", "a cat ran"}
	tok := tokenizer.Train(lines, 24)
	m := NewModel(model.TrainNGram(lines, tok, model.NGramConfig{Order: 2, MaxSeqLen: 16}), tok,
		ModelOptions{PlanCacheSize: -1, TraceSampling: -1})
	f.Add("cat|dog", "the", "ca[tr]", []byte{0, 4, 8, 1, 2, 3})
	f.Add("c(a|o)t", "the", "cat", []byte{0, 3, 3})
	f.Fuzz(func(t *testing.T, pattern, prefix, other string, knobs []byte) {
		if len(pattern) > 8 || len(prefix) > 8 || len(other) > 8 {
			return
		}
		a := fuzzQuery(pattern, prefix, knobs)

		b := a
		mutateExcept(&b, map[string]bool{"Query": true, "Preprocessors": true, "Tokenization": true}, knobs)
		b.Query.Prefix = other
		applyDefaults(&b)
		samePlan(t, m, &a, &b, true)

		b = a
		mutateExcept(&b, map[string]bool{"Query": true, "PrefixLimit": true, "PrefixMaxLen": true}, knobs)
		b.Query.Pattern = other
		applyDefaults(&b)
		samePrefix(t, m, &a, &b, true)

		backwards := make([]byte, len(knobs))
		for i, k := range knobs {
			backwards[len(knobs)-1-i] = k
		}
		c := fuzzQuery(other, other, backwards)
		samePlan(t, m, &a, &c, false)
		samePrefix(t, m, &a, &c, false)

		ignoreCase := len(knobs)%2 == 1
		removing := func(words []string) SearchQuery {
			q := a
			q.Preprocessors = append(slices.Clip(a.Preprocessors), RemoveWords{Words: words, IgnoreCase: ignoreCase})
			return q
		}
		wa, wb := cutWords(other, knobs, 0), cutWords(other, knobs, 1)
		ra, rb, same := removing(wa), removing(wb), removing(slices.Clone(wa))
		samePlan(t, m, &ra, &same, true)
		if slices.Equal(wa, wb) {
			samePlan(t, m, &ra, &rb, true)
		} else {
			ka, _ := planKey(m, &ra)
			kb, _ := planKey(m, &rb)
			if string(ka) == string(kb) {
				t.Fatalf("word lists %q and %q share plan key %s", wa, wb, ka)
			}
		}
	})
}

// cutWords cuts s at the positions the knobs at even (parity 0) or odd
// (parity 1) indices choose, in ascending order; a repeated position cuts
// out an empty word.
func cutWords(s string, knobs []byte, parity int) []string {
	var cuts []int
	for i := parity; i < len(knobs); i += 2 {
		cuts = append(cuts, int(knobs[i])%(len(s)+1))
	}
	slices.Sort(cuts)
	words, prev := []string{}, 0
	for _, c := range cuts {
		words = append(words, s[prev:c])
		prev = c
	}
	return append(words, s[prev:])
}

// fuzzQuery builds a query with defaults applied, its compile configuration
// read from knobs (zero past their end).
func fuzzQuery(pattern, prefix string, knobs []byte) SearchQuery {
	next := knobReader(knobs)
	q := SearchQuery{
		Query:        QueryString{Pattern: pattern, Prefix: prefix},
		Tokenization: TokenizationStrategy(next() % 2),
		PrefixLimit:  int(next() % 16),
		PrefixMaxLen: int(next() % 12),
	}
	if next()%2 == 1 {
		q.Preprocessors = []Preprocessor{EditDistance{K: 1, Alphabet: []byte("act")}}
	}
	applyDefaults(&q)
	return q
}

func knobReader(knobs []byte) func() byte {
	i := 0
	return func() byte {
		if i >= len(knobs) {
			return 0
		}
		i++
		return knobs[i-1]
	}
}

// mutateExcept gives every integer, float and boolean field of q outside keep
// a value read from knobs, shifted one place from what fuzzQuery read, and
// sets the function-valued and interface fields.
func mutateExcept(q *SearchQuery, keep map[string]bool, knobs []byte) {
	next := knobReader(append([]byte{7}, knobs...))
	v := reflect.ValueOf(q).Elem()
	for i := 0; i < v.NumField(); i++ {
		if keep[v.Type().Field(i).Name] {
			continue
		}
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(next()) + 1)
		case reflect.Float64:
			f.SetFloat(float64(next()) / 100)
		case reflect.Bool:
			f.SetBool(next()%2 == 0)
		}
	}
	if !keep["Preprocessors"] {
		q.Preprocessors = []Preprocessor{PrependLiteral{Lit: "x"}}
	}
	q.DeferredFilters = []func(string) bool{func(string) bool { return true }}
	q.Context = context.Background()
}

// samePlan compiles a and b when their plan keys are equal, and fails unless
// the products are equal too; wantEqual demands equal keys.
func samePlan(t *testing.T, m *Model, a, b *SearchQuery, wantEqual bool) {
	t.Helper()
	ka, aok := planKey(m, a)
	kb, bok := planKey(m, b)
	if !aok || !bok {
		t.Fatalf("built-in preprocessors left a query unkeyed")
	}
	if string(ka) != string(kb) {
		if wantEqual {
			t.Fatalf("queries differing only in ignored fields got plan keys\n%s\n%s", ka, kb)
		}
		return
	}
	ca, aerr := compilePattern(m, *a, enumerateLimit)
	cb, berr := compilePattern(m, *b, enumerateLimit)
	if (aerr == nil) != (berr == nil) {
		t.Fatalf("plan key %s: one compile failed: %v vs %v", ka, aerr, berr)
	}
	if aerr != nil {
		return
	}
	if !reflect.DeepEqual(ca.token, cb.token) || (ca.filter == nil) != (cb.filter == nil) {
		t.Fatalf("plan key %s: products differ: filter %v vs %v, token\n%v\n%v",
			ka, ca.filter != nil, cb.filter != nil, ca.token, cb.token)
	}
}

// samePrefix is samePlan for prefix keys and compiled prefixes: the byte
// automaton, the language size and the encoded strings.
func samePrefix(t *testing.T, m *Model, a, b *SearchQuery, wantEqual bool) {
	t.Helper()
	if ka, kb := prefixKey(m, a), prefixKey(m, b); string(ka) != string(kb) {
		if wantEqual {
			t.Fatalf("queries differing only in ignored fields got prefix keys\n%s\n%s", ka, kb)
		}
		return
	}
	pa, aerr := compilePrefix(m, a)
	pb, berr := compilePrefix(m, b)
	if (aerr == nil) != (berr == nil) {
		t.Fatalf("prefix %q: one compile failed: %v vs %v", a.Query.Prefix, aerr, berr)
	}
	if pa == nil || pb == nil {
		if pa != pb {
			t.Fatalf("prefix %q: compiled %v vs %v", a.Query.Prefix, pa, pb)
		}
		return
	}
	if !reflect.DeepEqual(pa.char, pb.char) || pa.Size() != pb.Size() {
		t.Fatalf("prefix %q: automata or sizes (%d vs %d) differ", a.Query.Prefix, pa.Size(), pb.Size())
	}
	ea, aerr := pa.Encode()
	eb, berr := pb.Encode()
	if !reflect.DeepEqual(ea, eb) || (aerr == nil) != (berr == nil) {
		t.Fatalf("prefix %q: encoded %v (%v) vs %v (%v)", a.Query.Prefix, ea, aerr, eb, berr)
	}
}
