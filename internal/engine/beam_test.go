package engine

import (
	"math"
	"slices"
	"testing"

	"repro/internal/automaton"
	"repro/internal/compiler"
	"repro/internal/decoding"
	"repro/internal/device"
	"repro/internal/model"
	"repro/internal/regex"
)

func TestBeamFindsTopCompletion(t *testing.T) {
	env := newNgramEnv(t, biasCorpus())
	char := regex.MustCompile(" ((engineering)|(medicine)|(art))")
	pat, err := compiler.CompileCanonical(char, env.tok, 20, 100)
	if err != nil {
		t.Fatal(err)
	}
	prefix := env.tok.Encode("The man was trained in")
	s := Beam(env.dev, &Query{
		Pattern:   pat,
		Prefixes:  [][]model.Token{prefix},
		MaxTokens: 12,
	}, BeamOptions{Width: 8})
	r, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got := env.tok.Decode(r.Pattern); got != " engineering" {
		t.Errorf("beam top = %q, want engineering", got)
	}
}

func TestBeamOrderingAndExhaustion(t *testing.T) {
	// All 2-token strings over {0,1}; scripted probabilities give a total
	// order the beam (width covering everything) must respect.
	dist := []float64{math.Log(0.7), math.Log(0.3), model.NegInf}
	m := &model.Table{Vocab: 3, EOSTok: 2, SeqLen: 8,
		Dist: map[string][]float64{"*": dist}, KeyFunc: func([]model.Token) string { return "*" }}
	n := automaton.NewNFA()
	s0 := n.AddState(false)
	s1 := n.AddState(false)
	s2 := n.AddState(true)
	n.SetStart(s0)
	for _, sym := range []int{0, 1} {
		n.AddEdge(s0, sym, s1)
		n.AddEdge(s1, sym, s2)
	}
	pat := n.Determinize()
	dev := device.New(m, device.DefaultLatency(), 8)
	s := Beam(dev, &Query{Pattern: pat, MaxTokens: 4}, BeamOptions{Width: 8})
	var got [][]model.Token
	for {
		r, err := s.Next()
		if err != nil {
			break
		}
		got = append(got, r.Pattern)
	}
	if len(got) != 4 {
		t.Fatalf("beam found %d matches, want 4", len(got))
	}
	// First must be 00 (0.49), last 11 (0.09).
	if got[0][0] != 0 || got[0][1] != 0 {
		t.Errorf("first = %v, want [0 0]", got[0])
	}
	if got[3][0] != 1 || got[3][1] != 1 {
		t.Errorf("last = %v, want [1 1]", got[3])
	}
	if _, err := s.Next(); err != ErrExhausted {
		t.Error("beam should exhaust")
	}
}

func TestBeamWidthPrunes(t *testing.T) {
	// Width 1 greedy beam keeps only the locally best branch: with p(0) >
	// p(1) it can never emit a string starting with 1.
	dist := []float64{math.Log(0.7), math.Log(0.3), model.NegInf}
	m := &model.Table{Vocab: 3, EOSTok: 2, SeqLen: 8,
		Dist: map[string][]float64{"*": dist}, KeyFunc: func([]model.Token) string { return "*" }}
	n := automaton.NewNFA()
	s0 := n.AddState(false)
	s1 := n.AddState(true)
	n.SetStart(s0)
	n.AddEdge(s0, 0, s1)
	n.AddEdge(s0, 1, s1)
	pat := n.Determinize()
	dev := device.New(m, device.DefaultLatency(), 8)
	s := Beam(dev, &Query{Pattern: pat, MaxTokens: 3}, BeamOptions{Width: 1})
	count := 0
	for {
		r, err := s.Next()
		if err != nil {
			break
		}
		count++
		if r.Pattern[0] == 1 {
			t.Error("width-1 beam emitted the pruned branch")
		}
	}
	if count != 1 {
		t.Errorf("width-1 beam emitted %d matches, want 1", count)
	}
}

func TestBeamRespectsRuleAndEOS(t *testing.T) {
	// Token 1 falls outside top-2 (which keeps token 0 and EOS); RequireEOS
	// charges the completion step.
	dist := []float64{math.Log(0.6), math.Log(0.1), math.Log(0.3)}
	m := &model.Table{Vocab: 3, EOSTok: 2, SeqLen: 8,
		Dist: map[string][]float64{"*": dist}, KeyFunc: func([]model.Token) string { return "*" }}
	n := automaton.NewNFA()
	s0 := n.AddState(false)
	s1 := n.AddState(true)
	n.SetStart(s0)
	n.AddEdge(s0, 0, s1)
	n.AddEdge(s0, 1, s1)
	pat := n.Determinize()
	dev := device.New(m, device.DefaultLatency(), 8)
	s := Beam(dev, &Query{
		Pattern:    pat,
		Rule:       decoding.TopK{K: 2},
		RequireEOS: true,
		MaxTokens:  3,
	}, BeamOptions{Width: 4})
	r, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	if r.Pattern[0] != 0 {
		t.Errorf("top-2 rule should only allow token 0, got %v", r.Pattern)
	}
	// LogProb includes the EOS step: log(0.6) + log(0.3).
	want := math.Log(0.6) + math.Log(0.3)
	if math.Abs(r.LogProb-want) > 1e-9 {
		t.Errorf("log prob = %f, want %f", r.LogProb, want)
	}
	if _, err := s.Next(); err != ErrExhausted {
		t.Error("rule should prune the other branch entirely")
	}
}

func TestBeamAgreesWithDijkstraOnTopResult(t *testing.T) {
	env := newNgramEnv(t, biasCorpus())
	char := regex.MustCompile(" ((engineering)|(medicine)|(art))")
	pat, err := compiler.CompileCanonical(char, env.tok, 20, 100)
	if err != nil {
		t.Fatal(err)
	}
	prefix := env.tok.Encode("The woman was trained in")
	q := &Query{Pattern: pat, Prefixes: [][]model.Token{prefix}, MaxTokens: 12}
	d := ShortestPath(env.dev, q)
	bm := Beam(env.dev, q, BeamOptions{Width: 16})
	dr, err := d.Next()
	if err != nil {
		t.Fatal(err)
	}
	br, err := bm.Next()
	if err != nil {
		t.Fatal(err)
	}
	if env.tok.Decode(dr.Pattern) != env.tok.Decode(br.Pattern) {
		t.Errorf("beam (wide) and dijkstra disagree on the top result: %q vs %q",
			env.tok.Decode(br.Pattern), env.tok.Decode(dr.Pattern))
	}
	if math.Abs(dr.LogProb-br.LogProb) > 1e-9 {
		t.Errorf("top log probs differ: %f vs %f", dr.LogProb, br.LogProb)
	}
}

// TestBeamEmitsAMultiplyHarvestedSequenceOnce: under the prefixes [0] and
// [0 1] the pattern 1? 2 harvests the token sequence 0 1 2 twice — at step 2
// from the first prefix and at step 1 from the second. Next emits it once, and
// the stream is the one an eager pass over every harvested match, keeping
// first occurrences, gives (and the per-child reference's).
func TestBeamEmitsAMultiplyHarvestedSequenceOnce(t *testing.T) {
	dist := []float64{math.Log(0.4), math.Log(0.3), math.Log(0.2), math.Log(0.1)}
	m := &model.Table{Vocab: 4, EOSTok: 3, SeqLen: 8,
		Dist: map[string][]float64{"*": dist}, KeyFunc: func([]model.Token) string { return "*" }}
	n := automaton.NewNFA()
	s0 := n.AddState(false)
	s1 := n.AddState(false)
	s2 := n.AddState(true)
	n.SetStart(s0)
	n.AddEdge(s0, 1, s1)
	n.AddEdge(s0, 2, s2)
	n.AddEdge(s1, 2, s2)
	dev := device.New(m, device.DefaultLatency(), 8)
	q := &Query{Pattern: n.Determinize(), Prefixes: [][]model.Token{{0}, {0, 1}}, MaxTokens: 4}
	s := Beam(dev, q, BeamOptions{Width: 8})
	got, _ := drainResults(t, s, 100)

	done := s.(*beamStream).done
	if len(done) != 4 {
		t.Fatalf("harvested %d matches, want 4 (0 2, 0 1 2 twice, 0 1 1 2)", len(done))
	}
	var eager []string
	seen := map[string]bool{}
	for i := range done {
		if k := model.Key(done[i].context()); !seen[k] {
			seen[k] = true
			eager = append(eager, resultKey(done[i].result()))
		}
	}
	if rows := resultRows(got); !slices.Equal(rows, eager) {
		t.Fatalf("stream %v, eager dedup %v", rows, eager)
	}
	if len(got) != 3 {
		t.Fatalf("emitted %d matches, want 3", len(got))
	}
	want, _, _ := refBeam(dev, q, 8)
	if rows, ref := resultRows(got), resultRows(want); !slices.Equal(rows, ref) {
		t.Fatalf("stream %v, reference %v", rows, ref)
	}
}
