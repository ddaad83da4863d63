package fault

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// Decisions must be a pure function of (seed, point, call index): two
// injectors with the same seed produce the same hit sequence, and a
// different seed a different one.
func TestHitSequenceDeterministic(t *testing.T) {
	seq := func(seed int64) []bool {
		in := New(seed).Set(DeviceForward, Spec{Prob: 0.3})
		out := make([]bool, 200)
		for i := range out {
			out[i] = in.Hit(DeviceForward).Failure()
		}
		return out
	}
	a, b := seq(42), seq(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d: same seed diverged", i+1)
		}
	}
	c := seq(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical 200-call sequences")
	}
}

// The injected rate over many calls must track the configured probability —
// the scenario spec means what it says.
func TestHitRateTracksProb(t *testing.T) {
	in := New(7).Set(LedgerAppend, Spec{Prob: 0.1})
	n := 20000
	for i := 0; i < n; i++ {
		in.Hit(LedgerAppend)
	}
	got := float64(in.Injected(LedgerAppend)) / float64(n)
	if got < 0.08 || got > 0.12 {
		t.Fatalf("injected rate %.4f, want ~0.10", got)
	}
}

// FailN fails exactly the first N calls and then recovers — the shape retry
// budgets are sized against.
func TestFailNThenRecover(t *testing.T) {
	in := New(1).Set(LedgerSync, Spec{FailN: 3})
	for i := 1; i <= 10; i++ {
		f := in.Hit(LedgerSync)
		if i <= 3 && !f.Failure() {
			t.Fatalf("call %d: want failure", i)
		}
		if i > 3 && f.Failure() {
			t.Fatalf("call %d: want recovery", i)
		}
	}
	if got := in.Injected(LedgerSync); got != 3 {
		t.Fatalf("injected %d, want 3", got)
	}
}

// Concurrent hits must neither race nor lose call indices: the counters add
// up and FailN injects exactly N across all goroutines.
func TestConcurrentHits(t *testing.T) {
	in := New(2).Set(DeviceExtend, Spec{FailN: 50})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				in.Hit(DeviceExtend)
			}
		}()
	}
	wg.Wait()
	if got := in.Calls(DeviceExtend); got != 800 {
		t.Fatalf("calls %d, want 800", got)
	}
	if got := in.Injected(DeviceExtend); got != 50 {
		t.Fatalf("injected %d, want 50", got)
	}
}

func TestClassification(t *testing.T) {
	tr := &Fault{Point: DeviceForward, Class: Transient, failure: true}
	pm := &Fault{Point: LedgerClose, Class: Permanent, failure: true}
	if !errors.Is(tr, ErrTransient) || errors.Is(tr, ErrPermanent) {
		t.Fatal("transient fault misclassified")
	}
	if !errors.Is(pm, ErrPermanent) || errors.Is(pm, ErrTransient) {
		t.Fatal("permanent fault misclassified")
	}
	// Wrapped faults keep their class through fmt.Errorf chains.
	wrapped := fmt.Errorf("ledger: append: %w", tr)
	if !IsTransient(wrapped) {
		t.Fatal("wrapping lost the transient class")
	}
	// Real errors join the taxonomy via the markers; unclassified errors are
	// treated as permanent (IsTransient false).
	if !IsTransient(MarkTransient(errors.New("EIO"))) {
		t.Fatal("MarkTransient not transient")
	}
	if IsTransient(MarkPermanent(errors.New("corrupt"))) {
		t.Fatal("MarkPermanent is transient")
	}
	if IsTransient(errors.New("mystery")) {
		t.Fatal("unclassified error treated as transient")
	}
	if IsTransient(nil) {
		t.Fatal("nil is transient")
	}
}

// Torn specs are forced permanent: retrying an append that already wrote
// partial bytes would append past garbage.
func TestTornForcesPermanent(t *testing.T) {
	in := New(3).Set(LedgerAppend, Spec{FailN: 1, Torn: true})
	f := in.Hit(LedgerAppend)
	if !f.Failure() || !f.Torn {
		t.Fatalf("want torn failure, got %+v", f)
	}
	if !errors.Is(f, ErrPermanent) {
		t.Fatal("torn fault must be permanent")
	}
}

// Latency-only hits stall without failing; they compose with error hits.
func TestLatencySpikes(t *testing.T) {
	in := New(4).Set(DeviceForward, Spec{Latency: 5 * time.Millisecond})
	f := in.Hit(DeviceForward)
	if f == nil || f.Failure() || f.Latency != 5*time.Millisecond {
		t.Fatalf("want latency-only hit, got %+v", f)
	}
	in2 := New(4).Set(DeviceForward, Spec{Latency: 5 * time.Millisecond, FailN: 1})
	f2 := in2.Hit(DeviceForward)
	if !f2.Failure() || f2.Latency != 5*time.Millisecond {
		t.Fatalf("want latency+failure hit, got %+v", f2)
	}
}

// The process-wide registry: nil fast path, enable, disable.
func TestGlobalEnableDisable(t *testing.T) {
	defer Disable()
	if Hit(DeviceForward) != nil {
		t.Fatal("disabled injector produced a hit")
	}
	Enable(New(5).Set(DeviceForward, Spec{FailN: 1}))
	if !Hit(DeviceForward).Failure() {
		t.Fatal("enabled injector did not fire")
	}
	Disable()
	if Hit(DeviceForward) != nil {
		t.Fatal("Disable did not revert to the nil path")
	}
}

func TestParseScenario(t *testing.T) {
	in, err := ParseScenario("device.forward=p0.05+lat2ms, ledger.sync=n1, ledger.append=n2+torn, server.search=n1+perm", 9)
	if err != nil {
		t.Fatal(err)
	}
	if f := in.Hit(LedgerSync); !f.Failure() || !errors.Is(f, ErrTransient) {
		t.Fatalf("ledger.sync n1: want transient failure, got %+v", f)
	}
	if f := in.Hit(LedgerAppend); !f.Torn || !errors.Is(f, ErrPermanent) {
		t.Fatalf("ledger.append torn: got %+v", f)
	}
	if f := in.Hit(ServerSearch); !errors.Is(f, ErrPermanent) {
		t.Fatalf("server.search perm: got %+v", f)
	}

	for _, bad := range []string{
		"nonsense",
		"no.such.point=p0.5",
		"device.forward=p1.5",
		"device.forward=pNaN",
		"device.forward=lat2ms+lpNaN",
		"device.forward=pInf",
		"device.forward=q0.5",
		"ledger.sync=n-1",
		"device.forward=latbogus",
	} {
		if _, err := ParseScenario(bad, 0); err == nil {
			t.Fatalf("ParseScenario(%q) accepted", bad)
		}
	}
}

// The injection decisions and the retry jitter are pinned to the values
// they had when first recorded: a changed hash would silently re-seed every
// chaos scenario and backoff schedule that replays from a seed.
func TestHashesPinned(t *testing.T) {
	for _, c := range []struct {
		seed      uint64
		name      string
		prob      float64
		calls     uint64 // bit i: decide at call i
		latencies uint64 // bit i: decide at call ^i, the latency draw
	}{
		{1, "device.forward", 0.3, 0xa06a40386422202, 0x1d1005128a00d00},
		{7, "ledger.sync", 0.5, 0xcb8029e2594053b3, 0xe54f54a44fd81cb9},
		{0xdeadbeef, "batcher.execute", 0.05, 0x4840000000000, 0x80000000020},
	} {
		var calls, latencies uint64
		for i := int64(0); i < 64; i++ {
			if decide(c.seed, c.name, i, c.prob) {
				calls |= 1 << i
			}
			if decide(c.seed, c.name, ^i, c.prob) {
				latencies |= 1 << i
			}
		}
		if calls != c.calls || latencies != c.latencies {
			t.Errorf("decide(%d, %q, ·, %v): calls %#x latencies %#x, want %#x %#x",
				c.seed, c.name, c.prob, calls, latencies, c.calls, c.latencies)
		}
	}
	for _, c := range []struct {
		b       Backoff
		attempt int
		want    time.Duration
	}{
		{Backoff{Seed: 1}, 0, 1196971},
		{Backoff{Seed: 1}, 3, 7725824},
		{Backoff{Seed: SeedFrom("job-0001", "7"), Base: time.Millisecond, Max: time.Second}, 5, 27025815},
		{Backoff{Seed: 0xdeadbeef, Base: 3 * time.Millisecond}, 1, 5315667},
	} {
		if got := c.b.Delay(c.attempt); got != c.want {
			t.Errorf("Backoff{Seed: %d, Base: %v, Max: %v}.Delay(%d) = %d, want %d",
				c.b.Seed, c.b.Base, c.b.Max, c.attempt, got, c.want)
		}
	}
}
