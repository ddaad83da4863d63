package repro

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/tokenizer"
	"repro/relm"
)

// Tiered KV-arena compression gate (DESIGN.md decision 14, ROADMAP item 3).
// The prefix-state arena is capacity-bound by bytes, not by the frontier: at
// a tight budget the uncompressed arena cannot keep even one query's deep
// prefix state resident between probes, so cross-probe acquires miss and
// every round re-prefills from scratch. With lossless tiering the same
// states demote to ~330 B token compacts instead of evicting, and promote
// back (one Prefill, installed via the handle) on the next acquire — so the
// same byte budget answers almost every acquire. The gate pins both
// properties: >= 4x the hit rate at a fixed small budget on the depth-32
// digit-string memorization workload, and byte-identical result streams
// with compression on.

// kvGateIDs returns n distinct 32-digit "id ..." strings: the first four are
// fixed, the rest generated by xorshift64 so the workload is deterministic
// without any global RNG.
func kvGateIDs(n int) []string {
	ids := []string{
		"id 12345678901234567890123456789012",
		"id 98765432109876543210987654321098",
		"id 31415926535897932384626433832795",
		"id 27182818284590452353602874713526",
	}
	x := uint64(88172645463325252)
	for len(ids) < n {
		var sb strings.Builder
		sb.WriteString("id ")
		for i := 0; i < 32; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			sb.WriteByte(byte('0' + x%10))
		}
		ids = append(ids, sb.String())
	}
	return ids
}

// kvGateWorld trains the depth-32 memorization substrate: a byte-level
// tokenizer (no merges, so every digit is one token and each id is a
// 35-token path) and a small transformer that has memorized the first four
// ids. The probe set is larger than the trained set on purpose — the arena
// is exercised by the traversal shape, not by what the model predicts.
func kvGateWorld(tb testing.TB) (model.LanguageModel, *tokenizer.BPE, []string) {
	tb.Helper()
	ids := kvGateIDs(24)
	lines := []string{"the quick brown fox jumps over the lazy dog"}
	for _, id := range ids[:4] {
		for i := 0; i < 6; i++ {
			lines = append(lines, id)
		}
	}
	tok := tokenizer.Train(lines, 0)
	lm := model.TrainTransformer(lines, tok, model.TransformerConfig{
		DModel: 32, NHeads: 2, NLayers: 2, MaxSeqLen: 48, Epochs: 4, Seed: 5,
	})
	return lm, tok, ids
}

// kvGateProbe is one memorization probe: anchor the full 35-token id as the
// prefix and score its one-token continuations. Each probe acquires the
// deep prefix states committed by earlier probes of the same id — the
// cross-query reuse the arena exists for.
func kvGateProbe(id string) relm.SearchQuery {
	return relm.SearchQuery{
		Query:       relm.QueryString{Pattern: " [0-9]", Prefix: id},
		MaxTokens:   40,
		Incremental: true,
	}
}

// runKVGateSweep probes every id, rounds times, against one shared arena and
// reports the arena's stats plus the concatenated result streams. The model
// has no logit cache: with one, every round after the first would be answered
// from it before the arena is asked (DESIGN.md decision 10).
func runKVGateSweep(tb testing.TB, lm model.LanguageModel, tok *tokenizer.BPE, ids []string,
	compression relm.KVCompression, budget int64, rounds int) (relm.KVStats, []string) {
	tb.Helper()
	m := relm.NewModel(lm, tok, relm.ModelOptions{
		CacheSize:     -1,
		KVBudgetBytes: budget,
		KVCompression: compression,
	})
	var streams []string
	for r := 0; r < rounds; r++ {
		for _, id := range ids {
			results, err := relm.Search(m, kvGateProbe(id))
			if err != nil {
				tb.Fatal(err)
			}
			for _, mt := range results.Take(3) {
				streams = append(streams, fmt.Sprintf("%q|%v|%v", mt.Text, mt.Tokens, mt.LogProb))
			}
			if err := results.Err(); err != nil {
				tb.Fatalf("round %d id %q: stream error %v", r, id, err)
			}
			results.Close()
		}
	}
	return m.KVStats(), streams
}

func hitRate(s relm.KVStats) float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// TestKVCompressionCapacityGate is the PR-8 acceptance gate: at a fixed
// small byte budget, the lossless tier's hit rate on the depth-32
// memorization sweep is >= 4x the uncompressed arena's, with identical
// result bytes.
//
// The budget is the discriminating point: 40 KiB is roughly ONE uncompressed
// depth-35 full-copy prefill state (35 tokens x 2 layers x K+V x (32
// float64s + row headers) ~ 39.6 KiB), so the uncompressed arm can retain at
// most the newest prefilled state between probes — one healed hit out of the
// twelve contexts each probe scores. The lossless arm demotes every state to
// a ~330 B token compact instead of evicting and serves eleven of twelve
// acquires via promote-on-acquire (NeedsRecompute -> Prefill -> Promote),
// which the arena counts as hits because the caller skipped the cold path.
func TestKVCompressionCapacityGate(t *testing.T) {
	const budget = 40 << 10
	const rounds = 3
	lm, tok, ids := kvGateWorld(t)
	off, offStreams := runKVGateSweep(t, lm, tok, ids, relm.KVCompressOff, budget, rounds)
	lossless, losslessStreams := runKVGateSweep(t, lm, tok, ids, relm.KVCompressLossless, budget, rounds)

	if len(offStreams) == 0 {
		t.Fatal("probe sweep produced no results: the gate workload is broken")
	}
	if fmt.Sprint(offStreams) != fmt.Sprint(losslessStreams) {
		t.Errorf("lossless streams differ from uncompressed\noff:      %v\nlossless: %v", offStreams, losslessStreams)
	}
	offRate, losslessRate := hitRate(off), hitRate(lossless)
	t.Logf("uncompressed: %.3f hit rate (%d hits / %d misses, %d evictions) over %d results",
		offRate, off.Hits, off.Misses, off.Evictions, len(offStreams))
	t.Logf("lossless:     %.3f hit rate (%d hits / %d misses, %d evictions, %d demotions, %d promotions, %d compressed nodes / %d B)",
		losslessRate, lossless.Hits, lossless.Misses, lossless.Evictions,
		lossless.Demotions, lossless.Promotions, lossless.CompressedNodes, lossless.CompressedBytes)
	if lossless.Demotions == 0 {
		t.Error("lossless arm never demoted: the budget is not exercising the tiers")
	}
	if lossless.Promotions == 0 {
		t.Error("lossless arm never promoted: acquires are not reaching the compact tier")
	}
	if off.Demotions != 0 || off.CompressedNodes != 0 {
		t.Errorf("uncompressed arm reports compression activity: %+v", off)
	}
	if losslessRate < 4*offRate {
		t.Errorf("lossless hit rate %.3f < 4x uncompressed %.3f", losslessRate, offRate)
	}
	if losslessRate < 0.5 {
		t.Errorf("lossless hit rate %.3f < 0.5: the compact tier is not carrying the workload", losslessRate)
	}
}

// TestKVCompressionEngineEquivalence pins byte-identity for all four engines
// under the default (lossless) tier: dijkstra, beam, and sampling streams
// and the Mass bounds must match the uncompressed arena exactly. Two passes
// per arm: the second traverses a demoted trie in the compressed arm — the
// regime byte-identity must survive. No logit cache, so the second pass
// reaches the arena rather than the cached rows of the first.
func TestKVCompressionEngineEquivalence(t *testing.T) {
	lm, tok, ids := kvGateWorld(t)
	const budget = 48 << 10
	arms := func(compression relm.KVCompression) []string {
		m := relm.NewModel(lm, tok, relm.ModelOptions{
			CacheSize:     -1,
			KVBudgetBytes: budget,
			KVCompression: compression,
		})
		var out []string
		for pass := 0; pass < 2; pass++ {
			for _, id := range ids[:6] {
				for _, strat := range []relm.SearchStrategy{relm.ShortestPath, relm.BeamSearch, relm.RandomSampling} {
					q := kvGateProbe(id)
					q.Strategy = strat
					q.BeamWidth = 4
					q.Seed = 11
					results, err := relm.Search(m, q)
					if err != nil {
						t.Fatal(err)
					}
					for _, mt := range results.Take(3) {
						out = append(out, fmt.Sprintf("%d|%q|%v|%v", strat, mt.Text, mt.Tokens, mt.LogProb))
					}
					if err := results.Err(); err != nil {
						t.Fatalf("strategy %d pass %d: %v", strat, pass, err)
					}
					results.Close()
				}
				mq := kvGateProbe(id)
				mq.Query.Pattern = " [0-9]{2}"
				est, err := relm.Mass(m, mq, relm.MassOptions{Tolerance: 0.05, MaxNodes: 300})
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, fmt.Sprintf("mass|%v|%v|%d", est.Lower, est.Upper, est.Matches))
			}
		}
		return out
	}
	off := arms(relm.KVCompressOff)
	lossless := arms(relm.KVCompressLossless)
	if len(off) <= 12 {
		t.Fatalf("equivalence arms produced only %d entries: streams are near-empty", len(off))
	}
	if len(off) != len(lossless) {
		t.Fatalf("arm lengths differ: off=%d lossless=%d", len(off), len(lossless))
	}
	for i := range off {
		if off[i] != lossless[i] {
			t.Errorf("result %d differs:\noff:      %s\nlossless: %s", i, off[i], lossless[i])
		}
	}
}

// BenchmarkKVCompression prices the depth-32 memorization sweep per arena
// tier at the gate's tight budget. hit-rate and resident-kb are the headline
// metrics: the capacity the tier buys and the bytes it spends.
func BenchmarkKVCompression(b *testing.B) {
	lm, tok, ids := kvGateWorld(b)
	for _, arm := range []struct {
		name string
		mode relm.KVCompression
	}{
		{"uncompressed", relm.KVCompressOff},
		{"lossless", relm.KVCompressLossless},
		{"aggressive", relm.KVCompressAggressive},
	} {
		b.Run(arm.name, func(b *testing.B) {
			var last relm.KVStats
			for i := 0; i < b.N; i++ {
				last, _ = runKVGateSweep(b, lm, tok, ids, arm.mode, 40<<10, 3)
			}
			b.ReportMetric(hitRate(last), "hit-rate")
			b.ReportMetric(float64(last.ResidentBytes)/1024, "resident-kb")
		})
	}
}
