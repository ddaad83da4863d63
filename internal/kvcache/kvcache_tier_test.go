package kvcache

import (
	"slices"
	"testing"

	"repro/internal/model"
)

// Demotion coverage (DESIGN.md decision 14): a cold node keeps its token
// context and drops its rows, under byte pressure or past the hot window;
// promotion re-installs a recomputed state; pinned nodes never demote; and
// reclaim spends demoted nodes only once no full leaf remains. Run under
// -race with the rest of the package.

// windowed builds an arena with the given hot window (0: none).
func windowed(budget int64, hotWindow int) *Arena {
	a := NewTiered(Config{BudgetBytes: budget})
	a.hotWindow = hotWindow
	return a
}

// TestDemoteUnderPressure: over budget, cold full leaves demote to their
// token context instead of evicting — the state stays acquirable and the
// resident charge drops to the token-only size.
func TestDemoteUnderPressure(t *testing.T) {
	a := windowed(1000, 0)
	// Three 400-byte states: the third commit pushes resident to 1200, so
	// the coldest demotes (not evicts).
	for i := 0; i < 3; i++ {
		ctx := []model.Token{model.Token(i)}
		a.Commit(nil, ctx, st(400, ctx...)).Release()
	}
	s := a.Stats()
	if s.Demotions == 0 {
		t.Fatalf("no demotions under pressure: %+v", s)
	}
	if s.Evictions != 0 {
		t.Fatalf("evicted despite demotable states: %+v", s)
	}
	if s.ResidentBytes > 1000 {
		t.Fatalf("resident %d over budget", s.ResidentBytes)
	}
	if s.DemotedNodes != int(s.Demotions) || s.DemotedBytes != tokenOnlyBytes(1)*s.Demotions {
		t.Fatalf("demoted accounting off: %+v", s)
	}
	// Every context is still resident: demotion never loses a state.
	for i := 0; i < 3; i++ {
		h := a.Acquire([]model.Token{model.Token(i)})
		if h == nil {
			t.Fatalf("context %d lost after demotion", i)
		}
		h.Release()
	}
}

// TestPromoteOnAcquire is the one demoted form end to end: the node keeps
// its key's tokens and is charged their size, its handle asks for a
// recompute, and Promote re-charges it at the full state's size.
func TestPromoteOnAcquire(t *testing.T) {
	// A hot window of one demotes the node as soon as a second release makes
	// it the coldest full leaf.
	a := windowed(1<<20, 1)
	ctx := []model.Token{3, 4}
	full := st(400, ctx...)
	a.Commit(nil, ctx, full).Release()
	a.Commit(nil, []model.Token{8}, st(100, 8)).Release()
	if s := a.Stats(); s.Demotions != 1 || s.DemotedBytes != tokenOnlyBytes(2) ||
		s.ResidentBytes != tokenOnlyBytes(2)+100 {
		t.Fatalf("demotion accounting off: %+v", s)
	}
	h := a.Acquire(ctx)
	if h == nil {
		t.Fatal("demoted node missed")
	}
	if !h.NeedsRecompute() {
		t.Fatal("demoted node did not request recompute")
	}
	if got := h.State().Context(); !slices.Equal(got, ctx) {
		t.Fatalf("demoted context %v, want %v", got, ctx)
	}
	if h.State() == model.DecodeState(full) {
		t.Fatal("demoted node kept its full state")
	}
	h.Promote(full)
	if h.NeedsRecompute() {
		t.Fatal("still demoted after Promote")
	}
	if h.State() != model.DecodeState(full) {
		t.Fatal("Promote did not install the recomputed state")
	}
	// Check before Release: releasing re-runs the hot window, which would
	// demote the other full node and muddy the counters.
	if s := a.Stats(); s.Promotions != 1 || s.DemotedNodes != 0 || s.ResidentBytes != 400+100 {
		t.Fatalf("promotion accounting off: %+v", s)
	}
	checkCharges(t, a)
	h.Release()
}

// TestPinnedNeverDemote: a pinned node is exempt from both demotion and
// eviction no matter the pressure; its state pointer is stable for the
// whole scoring round.
func TestPinnedNeverDemote(t *testing.T) {
	a := windowed(500, 1)
	ctx := []model.Token{1}
	orig := st(400, ctx...)
	h := a.Commit(nil, ctx, orig)
	// Pressure from both rungs while h is pinned: byte overflow and a hot
	// window of one.
	for i := 2; i < 6; i++ {
		a.Commit(nil, []model.Token{model.Token(i)}, st(400, model.Token(i))).Release()
	}
	if h.NeedsRecompute() {
		t.Fatal("pinned node demoted under pressure")
	}
	if h.State() != model.DecodeState(orig) {
		t.Fatal("pinned state replaced")
	}
	h.Release()
}

// TestMixedTierEvictionOrder: reclaim demotes full leaves first and evicts
// demoted nodes only when no full leaf remains, dropping the oldest first.
// Full states always survive at the expense of demoted ones.
func TestMixedTierEvictionOrder(t *testing.T) {
	a := windowed(1000, 0)
	// Twenty 300-byte states: the newest stays full while the demoted ones
	// pile up past the budget, so further commits must evict the oldest.
	const n = 20
	for i := 0; i < n; i++ {
		ctx := []model.Token{model.Token(i)}
		a.Commit(nil, ctx, st(300, ctx...)).Release()
	}
	s := a.Stats()
	if s.Demotions == 0 || s.Evictions == 0 {
		t.Fatalf("expected both demotions and evictions: %+v", s)
	}
	if s.ResidentBytes > 1000 {
		t.Fatalf("resident %d over budget", s.ResidentBytes)
	}
	checkCharges(t, a)
	// The newest commit must still be full: demotion-before-eviction spends
	// demoted nodes, never the hot tip.
	h := a.Acquire([]model.Token{n - 1})
	if h == nil {
		t.Fatal("newest node gone")
	}
	if h.NeedsRecompute() {
		t.Fatal("newest node demoted while older demoted nodes were evictable")
	}
	h.Release()
	// Eviction consumed the oldest contexts first.
	if h := a.Acquire([]model.Token{0}); h != nil {
		t.Fatal("oldest demoted node survived while newer nodes were evicted")
	}
}

// TestHandleStateNilAfterRelease is the regression for the documented
// contract: State (and the other accessors) on a released handle return
// zero values instead of touching freed arena state.
func TestHandleStateNilAfterRelease(t *testing.T) {
	a := NewTiered(Config{BudgetBytes: 1 << 10})
	h := a.Commit(nil, []model.Token{1}, st(10, 1))
	if h.State() == nil {
		t.Fatal("live handle returned nil state")
	}
	h.Release()
	if got := h.State(); got != nil {
		t.Fatalf("released handle returned %v, want nil", got)
	}
	if h.NeedsRecompute() {
		t.Fatal("released handle claims NeedsRecompute")
	}
	h.Promote(st(10, 1)) // must be a no-op, not a panic
	var nilH *Handle
	if nilH.State() != nil {
		t.Fatal("nil handle returned a state")
	}
}

// TestCommitKeyAllocs pins the pooled key encoder and the intrusive LRU:
// steady-state Commit of an existing context and Acquire hits must not
// allocate key bytes or list elements (one Handle allocation each is the
// whole budget).
func TestCommitKeyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	a := NewTiered(Config{BudgetBytes: 1 << 20})
	ctx := []model.Token{1, 2, 3, 4, 5, 6, 7, 8}
	state := st(256, ctx...)
	a.Commit(nil, ctx, state).Release()
	commitAllocs := testing.AllocsPerRun(100, func() {
		a.Commit(nil, ctx, state).Release()
	})
	if commitAllocs > 1 {
		t.Errorf("existing-node Commit allocates %.1f objects/op, want <= 1 (the Handle)", commitAllocs)
	}
	acquireAllocs := testing.AllocsPerRun(100, func() {
		a.Acquire(ctx).Release()
	})
	if acquireAllocs > 1 {
		t.Errorf("Acquire hit allocates %.1f objects/op, want <= 1 (the Handle)", acquireAllocs)
	}
}

// BenchmarkArenaCommit prices the commit fast path (existing node) with
// allocation reporting, complementing TestCommitKeyAllocs's hard assertion.
func BenchmarkArenaCommit(b *testing.B) {
	a := NewTiered(Config{BudgetBytes: 1 << 20})
	ctx := []model.Token{1, 2, 3, 4, 5, 6, 7, 8}
	state := st(256, ctx...)
	a.Commit(nil, ctx, state).Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Commit(nil, ctx, state).Release()
	}
}
