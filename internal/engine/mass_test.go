package engine

import (
	"math"
	"testing"

	"repro/internal/automaton"
	"repro/internal/decoding"
	"repro/internal/device"
	"repro/internal/model"
)

// uniformDevice wraps a uniform LM (vocab v, EOS = v-1) in a device.
func uniformDevice(vocab int) *device.Device {
	lm := &model.Uniform{Vocab: vocab, EOSTok: model.Token(vocab - 1), SeqLen: 16}
	return device.New(lm, device.DefaultLatency(), 8)
}

// tokenDFA accepts exactly the given token strings.
func tokenDFA(seqs ...[]automaton.Symbol) *automaton.Frozen {
	return automaton.FromSymbolSeqs(seqs).Freeze()
}

func TestMassExactOnUniformModel(t *testing.T) {
	// Vocab 4 (tokens 0,1,2 + EOS 3), uniform: every step has p=1/4.
	dev := uniformDevice(4)
	// L = {0, 12}: mass = p(0)p(EOS) + p(1)p(2)p(EOS) = 1/16 + 1/64.
	pat := tokenDFA([]automaton.Symbol{0}, []automaton.Symbol{1, 2})
	res := must(Mass(dev, &Query{Pattern: pat}, MassOptions{Tolerance: 1e-12}))
	want := 1.0/16 + 1.0/64
	if !res.Converged {
		t.Fatal("failed to converge on a 2-string language")
	}
	if math.Abs(res.Lower-want) > 1e-12 || math.Abs(res.Upper-want) > 1e-9 {
		t.Fatalf("mass = [%g, %g], want %g", res.Lower, res.Upper, want)
	}
	if res.Matches != 2 {
		t.Fatalf("matches = %d, want 2", res.Matches)
	}
}

func TestMassBoundsAreSound(t *testing.T) {
	// An unbounded language under a budget: bounds must satisfy
	// 0 <= Lower <= Upper <= 1 and not converge to a point when truncated.
	dev := uniformDevice(4)
	// L = 0* 1 (all strings of zeros ending in one).
	n := automaton.NewNFA()
	s0 := n.AddState(false)
	s1 := n.AddState(true)
	n.AddEdge(s0, 0, s0)
	n.AddEdge(s0, 1, s1)
	n.SetStart(s0)
	pat := n.Determinize().Freeze()

	res := must(Mass(dev, &Query{Pattern: pat, MaxTokens: 10, MaxNodes: 50}, MassOptions{Tolerance: 1e-15}))
	if res.Lower < 0 || res.Upper > 1 || res.Lower > res.Upper {
		t.Fatalf("unsound bounds [%g, %g]", res.Lower, res.Upper)
	}
	// Exact mass: Σ_{k=0..9} (1/4)^k · 1/4 · 1/4 = (1/16)·Σ (1/4)^k.
	exact := 0.0
	for k := 0; k <= 9; k++ {
		exact += math.Pow(0.25, float64(k)) * 0.25 * 0.25
	}
	if res.Lower > exact+1e-12 || res.Upper < exact-1e-12 {
		t.Fatalf("bounds [%g, %g] exclude the exact mass %g", res.Lower, res.Upper, exact)
	}
}

// TestMassUpperNotBelowLower: the running frontier sum drifts under
// subtraction, and on a tie-dense chain it ended below zero, so Upper came
// out below Lower (0.16616942188066325 against 0.16616942188066372). Upper
// is clamped to at least Lower, as it is to at most 1.
func TestMassUpperNotBelowLower(t *testing.T) {
	lm := &rowLM{model.Uniform{Vocab: 9, EOSTok: 8, SeqLen: 16}, []float64{0, 0, 0, 0, -1, -1, -1, -1, -1}}
	dev := device.New(lm, device.DefaultLatency(), 8)
	q := &Query{Pattern: chainPattern(8, 3), BatchExpand: 1, MaxNodes: 600}
	res := must(Mass(dev, q, MassOptions{Tolerance: 1e-6}))
	if res.Lower < 0 || res.Upper > 1 || res.Lower > res.Upper {
		t.Fatalf("unsound bounds [%v, %v]", res.Lower, res.Upper)
	}
	if !res.Converged {
		t.Fatalf("bounds [%v, %v] did not converge", res.Lower, res.Upper)
	}
}

func TestMassConvergesWithBudget(t *testing.T) {
	dev := uniformDevice(4)
	n := automaton.NewNFA()
	s0 := n.AddState(false)
	s1 := n.AddState(true)
	n.AddEdge(s0, 0, s0)
	n.AddEdge(s0, 1, s1)
	n.SetStart(s0)
	pat := n.Determinize().Freeze()

	loose := must(Mass(dev, &Query{Pattern: pat, MaxTokens: 12, MaxNodes: 3}, MassOptions{Tolerance: 1e-9}))
	tight := must(Mass(dev, &Query{Pattern: pat, MaxTokens: 12, MaxNodes: 10000}, MassOptions{Tolerance: 1e-9}))
	if loose.Gap() <= tight.Gap() {
		t.Fatalf("more budget did not tighten the gap: %g vs %g", loose.Gap(), tight.Gap())
	}
	if !tight.Converged {
		t.Fatal("ample budget failed to converge")
	}
}

func TestMassRespectsDecisionRule(t *testing.T) {
	// A Table model where token 1 is outside top-1: top-k=1 must zero the
	// mass of strings using it.
	vocab := 4
	dist := make([]float64, vocab)
	for i := range dist {
		dist[i] = model.NegInf
	}
	// p(0)=0.7, p(1)=0.2, p(EOS)=0.1
	dist[0] = math.Log(0.7)
	dist[1] = math.Log(0.2)
	dist[3] = math.Log(0.1)
	lm := &model.Table{Vocab: vocab, EOSTok: 3, SeqLen: 8, Dist: map[string][]float64{
		model.Key(nil): dist,
	}}
	dev := device.New(lm, device.DefaultLatency(), 8)

	pat := tokenDFA([]automaton.Symbol{0}, []automaton.Symbol{1})
	free := must(Mass(dev, &Query{Pattern: pat}, MassOptions{Tolerance: 1e-12}))
	topk := must(Mass(dev, &Query{Pattern: pat, Rule: decoding.TopK{K: 1}}, MassOptions{Tolerance: 1e-12}))
	if free.Lower <= topk.Lower {
		t.Fatalf("rule did not reduce mass: free %g vs top-1 %g", free.Lower, topk.Lower)
	}
	if free.Matches != 2 || topk.Matches > 1 {
		t.Fatalf("matches: free %d topk %d", free.Matches, topk.Matches)
	}
}

func TestMassPrefixMixture(t *testing.T) {
	dev := uniformDevice(4)
	pat := tokenDFA([]automaton.Symbol{0})
	// Two prefixes: mixture weight 1/2 each; uniform model is context-free,
	// so the mass equals the single-prefix mass.
	one := must(Mass(dev, &Query{Pattern: pat, Prefixes: [][]model.Token{{2}}}, MassOptions{Tolerance: 1e-12}))
	two := must(Mass(dev, &Query{Pattern: pat, Prefixes: [][]model.Token{{2}, {1}}}, MassOptions{Tolerance: 1e-12}))
	if math.Abs(one.Lower-two.Lower) > 1e-12 {
		t.Fatalf("mixture mass %g != single-prefix mass %g", two.Lower, one.Lower)
	}
}

func TestMassEmptyLanguage(t *testing.T) {
	dev := uniformDevice(4)
	d := automaton.NewDFA()
	d.SetStart(d.AddState(false)) // no accepting states
	res := must(Mass(dev, &Query{Pattern: d.Freeze()}, MassOptions{}))
	if res.Lower != 0 || res.Matches != 0 {
		t.Fatalf("empty language has mass [%g, %g]", res.Lower, res.Upper)
	}
	if !res.Converged {
		t.Fatal("empty language must converge immediately")
	}
}
