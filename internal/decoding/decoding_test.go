package decoding

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func logDist(ps ...float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		if p == 0 {
			out[i] = math.Inf(-1)
		} else {
			out[i] = math.Log(p)
		}
	}
	return out
}

func finiteCount(lp []float64) int {
	n := 0
	for _, x := range lp {
		if !math.IsInf(x, -1) {
			n++
		}
	}
	return n
}

func sumExp(lp []float64) float64 {
	s := 0.0
	for _, x := range lp {
		if !math.IsInf(x, -1) {
			s += math.Exp(x)
		}
	}
	return s
}

func TestTopKKeepsExactlyK(t *testing.T) {
	lp := logDist(0.4, 0.3, 0.2, 0.1)
	TopK{K: 2}.apply(lp)
	if got := finiteCount(lp); got != 2 {
		t.Fatalf("top-2 kept %d tokens", got)
	}
	if math.IsInf(lp[0], -1) || math.IsInf(lp[1], -1) {
		t.Error("top-2 dropped the most likely tokens")
	}
	if math.Abs(sumExp(lp)-1) > 1e-9 {
		t.Errorf("top-k result not renormalized: sums to %f", sumExp(lp))
	}
}

func TestTopKNoOp(t *testing.T) {
	lp := logDist(0.5, 0.5)
	orig := append([]float64{}, lp...)
	TopK{K: 0}.apply(lp)
	TopK{K: 5}.apply(lp)
	for i := range lp {
		if lp[i] != orig[i] {
			t.Error("k<=0 or k>=len should be identity")
		}
	}
}

func TestTopKRelativeOrderPreserved(t *testing.T) {
	lp := logDist(0.1, 0.5, 0.25, 0.15)
	TopK{K: 3}.apply(lp)
	if !(lp[1] > lp[2] && lp[2] > lp[3]) {
		t.Error("top-k should preserve relative order of kept tokens")
	}
	if !math.IsInf(lp[0], -1) {
		t.Error("least likely token should be dropped")
	}
}

func TestTopPNucleus(t *testing.T) {
	lp := logDist(0.5, 0.3, 0.15, 0.05)
	TopP{P: 0.7}.apply(lp)
	// 0.5 alone < 0.7, 0.5+0.3 >= 0.7 -> keep 2.
	if got := finiteCount(lp); got != 2 {
		t.Fatalf("top-p kept %d tokens, want 2", got)
	}
	if math.Abs(sumExp(lp)-1) > 1e-9 {
		t.Error("top-p not renormalized")
	}
}

func TestTopPBoundaries(t *testing.T) {
	lp := logDist(0.6, 0.4)
	TopP{P: 0}.apply(lp)
	TopP{P: 1}.apply(lp)
	if finiteCount(lp) != 2 {
		t.Error("p<=0 or p>=1 should be identity")
	}
	lp2 := logDist(0.6, 0.4)
	TopP{P: 0.1}.apply(lp2)
	if finiteCount(lp2) != 1 {
		t.Error("tiny p should keep exactly the top token")
	}
}

func TestGreedy(t *testing.T) {
	lp := logDist(0.2, 0.5, 0.3)
	Greedy{}.apply(lp)
	if finiteCount(lp) != 1 || math.IsInf(lp[1], -1) {
		t.Error("greedy should keep exactly the argmax")
	}
	if lp[1] != 0 {
		t.Errorf("greedy survivor should have log prob 0, got %f", lp[1])
	}
}

func TestTemperature(t *testing.T) {
	lp := logDist(0.8, 0.2)
	flat := append([]float64{}, lp...)
	Temperature{T: 10}.apply(flat)
	if !(flat[0]-flat[1] < lp[0]-lp[1]) {
		t.Error("high temperature should flatten the distribution")
	}
	sharp := append([]float64{}, lp...)
	Temperature{T: 0.5}.apply(sharp)
	if !(sharp[0]-sharp[1] > lp[0]-lp[1]) {
		t.Error("low temperature should sharpen the distribution")
	}
	if math.Abs(sumExp(flat)-1) > 1e-9 || math.Abs(sumExp(sharp)-1) > 1e-9 {
		t.Error("temperature must renormalize")
	}
}

func TestChainComposition(t *testing.T) {
	lp := logDist(0.4, 0.3, 0.2, 0.1)
	Chain{Temperature{T: 2}, TopK{K: 2}}.apply(lp)
	if finiteCount(lp) != 2 {
		t.Error("chain should apply all rules")
	}
	if (Chain{Temperature{T: 2}, TopK{K: 2}}).Name() != "temperature+top-k" {
		t.Error("chain name wrong")
	}
	if (Chain{}).Name() != "none" {
		t.Error("empty chain name wrong")
	}
}

func TestNone(t *testing.T) {
	lp := logDist(0.9, 0.1)
	orig := append([]float64{}, lp...)
	None{}.apply(lp)
	for i := range lp {
		if lp[i] != orig[i] {
			t.Error("None should be identity")
		}
	}
}

func TestAllowed(t *testing.T) {
	lp := logDist(0.4, 0.3, 0.2, 0.1)
	filtered := Allowed(TopK{K: 2}, lp, nil)
	if math.IsInf(filtered[0], -1) || math.IsInf(filtered[1], -1) {
		t.Errorf("Allowed dropped a top-2 token: %v", filtered)
	}
	// Original must be untouched.
	if math.IsInf(lp[3], -1) {
		t.Error("Allowed mutated its input")
	}
	if finiteCount(filtered) != 2 {
		t.Error("filtered copy wrong")
	}
}

func TestTopKAllImpossibleInput(t *testing.T) {
	lp := []float64{math.Inf(-1), math.Inf(-1)}
	TopK{K: 1}.apply(lp) // must not panic
	if finiteCount(lp) != 0 {
		t.Error("all-impossible input should stay impossible")
	}
}

func TestQuickTopKInvariants(t *testing.T) {
	f := func(raw []float64, kRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		lp := make([]float64, 0, 16)
		for i := 0; i < len(raw) && i < 16; i++ {
			x := raw[i]
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			lp = append(lp, -math.Mod(math.Abs(x), 20))
		}
		// Normalize the fuzzed vector so the post-rule sum check is
		// meaningful even when the rule is a no-op (k >= len).
		z := 0.0
		for _, x := range lp {
			z += math.Exp(x)
		}
		for i := range lp {
			lp[i] -= math.Log(z)
		}
		k := 1 + int(kRaw)%len(lp)
		TopK{K: k}.apply(lp)
		n := finiteCount(lp)
		if n == 0 || n > k {
			return false
		}
		return math.Abs(sumExp(lp)-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickTopPKeepsArgmax(t *testing.T) {
	f := func(raw []float64, pRaw uint8) bool {
		if len(raw) < 2 {
			return true
		}
		lp := make([]float64, 0, 8)
		for i := 0; i < len(raw) && i < 8; i++ {
			x := raw[i]
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 1
			}
			lp = append(lp, -math.Abs(x)-0.001*float64(i))
		}
		// Normalize first so TopP's cumulative math is meaningful.
		z := 0.0
		for _, x := range lp {
			z += math.Exp(x)
		}
		for i := range lp {
			lp[i] -= math.Log(z)
		}
		best, bi := math.Inf(-1), 0
		for i, x := range lp {
			if x > best {
				best, bi = x, i
			}
		}
		p := 0.05 + float64(pRaw%90)/100
		TopP{P: p}.apply(lp)
		return !math.IsInf(lp[bi], -1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// finiteIDs lists the tokens a filtered vector keeps.
func finiteIDs(lp []float64) []int {
	var out []int
	for i, x := range lp {
		if !math.IsInf(x, -1) {
			out = append(out, i)
		}
	}
	return out
}

// TestTieRule pins the one order every selecting rule cuts by: log
// probability descending, token id ascending among equals.
func TestTieRule(t *testing.T) {
	ninf := math.Inf(-1)
	tie := math.Log(0.1)
	cases := []struct {
		name string
		rule Rule
		lp   []float64
		want []int
	}{
		{"tie class straddles K", TopK{K: 3}, []float64{tie, math.Log(0.4), tie, tie, tie, tie, tie}, []int{0, 1, 2}},
		{"tie class straddles K, best last", TopK{K: 2}, []float64{tie, tie, tie, math.Log(0.7)}, []int{0, 3}},
		{"all equal", TopK{K: 2}, []float64{tie, tie, tie, tie}, []int{0, 1}},
		{"-Inf inside the top K", TopK{K: 3}, []float64{ninf, math.Log(0.6), ninf, math.Log(0.4), ninf}, []int{1, 3}},
		{"K >= V keeps every finite entry", TopK{K: 4}, []float64{tie, ninf, tie, tie}, []int{0, 2, 3}},
		{"K <= 0 keeps every finite entry", TopK{K: 0}, []float64{tie, ninf, tie, tie}, []int{0, 2, 3}},
		{"all impossible", TopK{K: 1}, []float64{ninf, ninf, ninf}, nil},
		{"greedy takes the lowest id among equals", Greedy{}, []float64{tie, math.Log(0.3), math.Log(0.3), tie}, []int{1}},
		{"nucleus ends inside a tie class", TopP{P: 0.55}, logDist(0.2, 0.2, 0.2, 0.2, 0.2), []int{0, 1, 2}},
		{"nucleus skips -Inf", TopP{P: 0.99}, []float64{ninf, math.Log(0.5), ninf, math.Log(0.5)}, []int{1, 3}},
	}
	for _, c := range cases {
		got := finiteIDs(Allowed(c.rule, c.lp, nil))
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: %s kept %v, want %v", c.name, c.rule.Name(), got, c.want)
		}
		sup, member := SupportOf(c.rule, c.lp), map[int]bool{}
		for _, tok := range c.want {
			member[tok] = true
		}
		for tok := range c.lp {
			if sup.Has(tok) != member[tok] {
				t.Errorf("%s: SupportOf.Has(%d) = %v, want %v", c.name, tok, sup.Has(tok), member[tok])
			}
		}
	}
}

// sortedTopK is the specification the selection is tested against: a stable
// full sort by descending log probability (stability = ascending id among
// equals), cut at K.
func sortedTopK(lp []float64, k int) []int {
	idx := make([]int, len(lp))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return lp[idx[a]] > lp[idx[b]] })
	var out []int
	for rank, i := range idx {
		if rank < k && !math.IsInf(lp[i], -1) {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

// tiedVector draws a log-probability vector from a handful of levels, so
// most entries tie, with some impossible tokens mixed in.
func tiedVector(rng *rand.Rand, n int) []float64 {
	lp := make([]float64, n)
	for i := range lp {
		if rng.Intn(6) == 0 {
			lp[i] = math.Inf(-1)
		} else {
			lp[i] = -float64(1 + rng.Intn(5))
		}
	}
	return lp
}

func TestSelectionMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 400; trial++ {
		lp := tiedVector(rng, 2+rng.Intn(200))
		k := 1 + rng.Intn(len(lp)-1)
		if got, want := finiteIDs(Allowed(TopK{K: k}, lp, nil)), sortedTopK(lp, k); !slices.Equal(got, want) {
			t.Fatalf("trial %d: top-%d of %v kept %v, want %v", trial, k, lp, got, want)
		}
	}
}

// TestSupportIsAllowedsFiniteSet checks the membership-only view against the
// reweighted vector for every rule shape, and that neither touches its input.
func TestSupportIsAllowedsFiniteSet(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rules := []Rule{
		nil, None{}, Chain{}, Greedy{}, TopK{K: 7}, TopK{K: 0}, TopP{P: 0.6}, TopP{P: 1}, Temperature{T: 0.7},
		Chain{TopK{K: 7}}, Chain{Temperature{T: 2}, TopK{K: 7}}, Chain{TopK{K: 20}, TopP{P: 0.5}},
		Chain{TopK{K: 9}, Temperature{T: 3}}, Chain{Chain{TopP{P: 0.8}}, None{}},
	}
	for trial := 0; trial < 60; trial++ {
		lp := tiedVector(rng, 2+rng.Intn(150))
		if trial%2 == 0 { // also distinct, properly normalized values
			for i := range lp {
				lp[i] = -rng.ExpFloat64() * 3
			}
			renormalize(lp)
		}
		orig := append([]float64{}, lp...)
		for ri, r := range rules {
			filtered, sup := Allowed(r, lp, nil), SupportOf(r, lp)
			for tok := range lp {
				if want := !math.IsInf(filtered[tok], -1); sup.Has(tok) != want {
					t.Fatalf("trial %d rule %d: Has(%d) = %v, Allowed says %v", trial, ri, tok, sup.Has(tok), want)
				}
				if lp[tok] != orig[tok] {
					t.Fatalf("trial %d rule %d: input mutated", trial, ri)
				}
			}
		}
	}
}

// TestSupportAllocatesNothing: on a warm pool a single rule's support
// allocates nothing; it is the row and a cutoff, and the selection heap is
// handed back before SupportOf returns.
func TestSupportAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	lp := tiedVector(rand.New(rand.NewSource(3)), 2000)
	top := sortedTopK(lp, 1)[0]
	for _, r := range []Rule{nil, None{}, TopK{K: 40}, Chain{TopK{K: 40}}, TopP{P: 0.5}, Greedy{}} {
		SupportOf(r, lp) // warm the pool
		allocs := testing.AllocsPerRun(100, func() {
			if !SupportOf(r, lp).Has(top) {
				t.Fatal("top token not kept")
			}
		})
		if allocs != 0 {
			t.Errorf("SupportOf(%s) allocated %.1f objects, want 0", nameOf(r), allocs)
		}
	}
}

// TestReusedScratchCarriesNothingOver: a selection made in scratch an earlier
// selection used — a larger K, a longer or shorter vector, the other rule —
// keeps exactly its own tokens.
func TestReusedScratchCarriesNothingOver(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sc := new(scratch)
	for trial := 0; trial < 300; trial++ {
		lp := tiedVector(rng, 2+rng.Intn(300))
		var r selector = TopK{K: 1 + rng.Intn(len(lp)-1)}
		if trial%3 == 0 {
			r = TopP{P: 0.05 + 0.9*rng.Float64()}
		}
		sup := Support{row: lp, cut: r.cut(lp, sc)}
		want := finiteIDs(Allowed(r.(Rule), lp, nil))
		var got []int
		for tok := range lp {
			if sup.Has(tok) {
				got = append(got, tok)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: %s on reused scratch kept %v, want %v", trial, r.(Rule).Name(), got, want)
		}
	}
}

// nameOf names r, or says there is none.
func nameOf(r Rule) string {
	if r == nil {
		return "no rule"
	}
	return r.Name()
}

// buildRules lists every chain relm's query planner can build from T, K and
// P: each non-empty subset of Temperature, TopK and TopP, in that order.
func buildRules(temp float64, k int, p float64) []Rule {
	var out []Rule
	for mask := 1; mask < 8; mask++ {
		var c Chain
		if mask&1 != 0 {
			c = append(c, Temperature{T: temp})
		}
		if mask&2 != 0 {
			c = append(c, TopK{K: k})
		}
		if mask&4 != 0 {
			c = append(c, TopP{P: p})
		}
		out = append(out, c)
	}
	return out
}

// checkAgainstReference fails unless r's support and Allowed on lp match the
// reference bit for bit, and lp is left unwritten.
func checkAgainstReference(t *testing.T, r Rule, lp []float64) {
	t.Helper()
	orig := append([]float64(nil), lp...)
	sup, want := SupportOf(r, lp), refSupportOf(r, lp)
	got, wantRow := Allowed(r, lp, nil), refAllowed(r, lp)
	for tok := range lp {
		if sup.Has(tok) != want.has(tok) {
			t.Fatalf("%s on %v: Has(%d) = %v, reference %v", nameOf(r), orig, tok, sup.Has(tok), want.has(tok))
		}
		if math.Float64bits(got[tok]) != math.Float64bits(wantRow[tok]) {
			t.Fatalf("%s on %v: Allowed[%d] = %v, reference %v", nameOf(r), orig, tok, got[tok], wantRow[tok])
		}
		if math.Float64bits(lp[tok]) != math.Float64bits(orig[tok]) {
			t.Fatalf("%s: input row written at %d", nameOf(r), tok)
		}
	}
}

// TestSupportMatchesReference holds the cutoff support and the selection
// Allowed retains by to the kept-set selection they replaced, on rows with
// tie classes, -Inf entries and distinct normalized values.
func TestSupportMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	listed := []Rule{
		nil, None{}, Chain{}, Greedy{}, TopK{K: 7}, TopK{K: 0}, TopP{P: 0.6}, TopP{P: 1}, Temperature{T: 0.7},
		Chain{TopK{K: 7}}, Chain{Temperature{T: 2}, TopK{K: 7}}, Chain{TopK{K: 20}, TopP{P: 0.5}},
		Chain{TopK{K: 9}, Temperature{T: 3}}, Chain{Chain{TopP{P: 0.8}}, None{}},
	}
	for trial := 0; trial < 600; trial++ {
		lp := tiedVector(rng, 2+rng.Intn(299))
		if trial%2 == 0 {
			for i := range lp {
				lp[i] = -rng.ExpFloat64() * 3
			}
			renormalize(lp)
		}
		temp := []float64{0.5, 0.7, 2, 3}[rng.Intn(4)]
		rules := append(buildRules(temp, 1+rng.Intn(len(lp)), 0.05+0.9*rng.Float64()), listed...)
		for _, r := range rules {
			checkAgainstReference(t, r, lp)
		}
	}
}

// FuzzSupport decodes a short row and a rule from the input and holds the
// support and Allowed to the reference. The first byte picks the rule: its
// low three bits which of Temperature, TopK and TopP a chain holds, bit 3 a
// lone rule unwrapped, bit 4 greedy instead, bit 5 a normalized row. The
// next three set T, K and P; each later byte is one entry, so equal bytes
// tie, and a byte of 12 mod 13 is impossible. The seed corpus is under
// testdata/fuzz/FuzzSupport.
func FuzzSupport(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		shape, temp, k, p, raw := data[0], 0.25+float64(data[1])/32, int(data[2]), float64(data[3])/255, data[4:]
		lp := make([]float64, min(len(raw), 64))
		for i := range lp {
			if raw[i]%13 == 12 {
				lp[i] = math.Inf(-1)
			} else {
				lp[i] = -float64(raw[i]%13) / 2
			}
		}
		if shape&32 != 0 {
			renormalize(lp)
		}
		var r Rule
		var c Chain
		for bit, sub := range []Rule{Temperature{T: temp}, TopK{K: k % (len(lp) + 1)}, TopP{P: p}} {
			if shape&(1<<bit) != 0 {
				c = append(c, sub)
			}
		}
		switch {
		case shape&16 != 0:
			r = Greedy{}
		case len(c) == 1 && shape&8 != 0:
			r = c[0]
		case len(c) > 0:
			r = c
		case shape&8 != 0:
			r = None{}
		}
		checkAgainstReference(t, r, lp)
	})
}
