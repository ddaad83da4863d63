package lru

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"
)

// order lists l's values from front (most recent) to back.
func order(l *List[int]) []int {
	var out []int
	for e := l.front; e != nil; e = e.next {
		out = append(out, e.Value)
	}
	return out
}

func TestListMembershipAndRemove(t *testing.T) {
	var l, other List[int]
	es := make([]Elem[int], 4)
	for i := range es {
		es[i].Value = i
		if es[i].Listed() {
			t.Fatalf("fresh element %d is listed", i)
		}
	}
	l.PushFront(&es[0])
	l.PushFront(&es[1])
	l.PushBack(&es[2])
	other.PushFront(&es[3])
	if got := order(&l); !slices.Equal(got, []int{1, 0, 2}) || l.Len() != 3 {
		t.Fatalf("list = %v (len %d), want [1 0 2]", got, l.Len())
	}
	if l.Back() != &es[2] {
		t.Fatalf("back = %v, want element 2", l.Back().Value)
	}

	es[0].Remove() // middle
	es[1].Remove() // front
	if es[0].Listed() || es[1].Listed() || !es[2].Listed() {
		t.Fatal("Remove left membership wrong")
	}
	if got := order(&l); !slices.Equal(got, []int{2}) || l.Len() != 1 {
		t.Fatalf("after removals list = %v (len %d), want [2]", got, l.Len())
	}
	es[0].Remove() // not listed: no-op
	if l.Len() != 1 || other.Len() != 1 {
		t.Fatal("removing an unlisted element changed a list")
	}
	es[3].Remove() // removes from its own list, not l
	if other.Len() != 0 || other.Back() != nil || l.Len() != 1 {
		t.Fatal("Remove touched the wrong list")
	}
	es[2].Remove() // back
	if l.Len() != 0 || l.Back() != nil || l.front != nil {
		t.Fatal("emptied list still links elements")
	}
	l.PushBack(&es[3]) // a removed element can be reinserted
	if got := order(&l); !slices.Equal(got, []int{3}) {
		t.Fatalf("reinserted list = %v", got)
	}
}

// TestMapRecencyBumpAndEviction: at capacity, the window's least recent
// entry leaves unless the sketch counts it more often than the main list's
// least recent one; a dropped entry is added afresh on its next request. Get
// counts and bumps; Has does neither.
func TestMapRecencyBumpAndEviction(t *testing.T) {
	m := NewMap[int](3) // window 1, main 2
	for i, k := range []string{"a", "b", "c"} {
		m.Add(k, i)
	}
	// Window [c], main [b a]. Get bumps "a" to the main front and counts it
	// twice; Has neither bumps nor counts "b", the main list's victim.
	if v, ok := m.Get([]byte("a")); !ok || v != 0 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	for range 3 {
		if !m.Has([]byte("b")) || m.Has([]byte("z")) {
			t.Fatal("Has answers wrong")
		}
	}
	m.Add("d", 3) // pushes "c" (count 1) out against "b" (count 1): "c" leaves
	if m.Len() != 3 {
		t.Fatalf("len = %d, want capacity 3", m.Len())
	}
	if m.Has([]byte("c")) {
		t.Fatal("the window's entry c stayed without outcounting the main victim b")
	}
	for _, k := range []string{"a", "b", "d"} {
		if !m.Has([]byte(k)) {
			t.Fatalf("%s left, want c to leave", k)
		}
	}

	// The dropped entry is requested again: it is added afresh, now counted
	// twice, and once the window pushes it out it displaces "b".
	m.Add("c", 4) // pushes "d" (count 1) out against "b" (count 1): "d" leaves
	if m.Len() != 3 || m.Has([]byte("d")) || !m.Has([]byte("c")) {
		t.Fatal("a re-added entry did not take the window, or d stayed")
	}
	m.Add("d", 5) // pushes "c" (count 2) out against "b" (count 1): "b" leaves
	if m.Len() != 3 || m.Has([]byte("b")) {
		t.Fatal("the more frequent candidate c did not displace the main victim b")
	}
	for k, want := range map[string]int{"a": 0, "c": 4, "d": 5} {
		if v, ok := m.Get([]byte(k)); !ok || v != want {
			t.Fatalf("Get(%s) = %d, %v; want %d", k, v, ok, want)
		}
	}
	if _, ok := m.Get([]byte("missing")); ok {
		t.Fatal("hit on a key never added")
	}
}

func TestMapAddKeepsIncumbent(t *testing.T) {
	m := NewMap[int](2)
	m.Add("a", 1)
	m.Add("b", 2)
	m.Add("a", 99) // present: keeps the value and leaves "a" least recent
	if v, _ := m.Get([]byte("a")); v != 1 {
		t.Fatalf("Add replaced an incumbent: a = %d", v)
	}
	m.Add("a", 98)
	m.Add("c", 3) // "b" is least recent now ("a" was bumped by Get)
	if m.Len() != 2 || m.Has([]byte("b")) || !m.Has([]byte("a")) {
		t.Fatal("a re-Add of a present key moved it or grew the map")
	}
}

func TestMapHitAllocatesNothing(t *testing.T) {
	m := NewMap[int](4)
	m.Add("a long key of more than thirty-two bytes, past any stack buffer", 1)
	key := []byte("a long key of more than thirty-two bytes, past any stack buffer")
	if allocs := testing.AllocsPerRun(100, func() { m.Get(key); m.Has(key) }); allocs != 0 {
		t.Fatalf("lookups allocate %.1f objects, want 0", allocs)
	}
}

// TestMapFlightSharesOneComputation: a key in flight is found by Lookup,
// uncounted, and its waiters wake to the value Commit admits; the entry then
// answers as resident.
func TestMapFlightSharesOneComputation(t *testing.T) {
	var mu sync.Mutex
	m := NewMap[int](4)
	mu.Lock()
	f := m.Start("k")
	if _, got, ok := m.Lookup([]byte("k")); got != f || ok || m.Has([]byte("k")) || m.Len() != 0 {
		t.Fatal("Lookup does not find the started flight, or it counts as resident")
	}
	if _, got, ok := m.Lookup([]byte("j")); got != nil || ok {
		t.Fatal("Lookup found a key never started")
	}
	if m.Frequency([]byte("k")) != 0 {
		t.Fatal("a lookup of a key in flight was counted")
	}
	mu.Unlock()
	got := make(chan int, 2)
	for range 2 {
		go func() {
			v, err := f.Wait()
			if err != nil {
				t.Error(err)
			}
			got <- v
		}()
	}
	mu.Lock()
	m.Commit(f, 7)
	if v, fl, ok := m.Lookup([]byte("k")); fl != nil || !ok || v != 7 || m.Len() != 1 {
		t.Fatalf("a committed flight answers %d, %v (flight %v), want resident 7", v, ok, fl != nil)
	}
	mu.Unlock()
	for range 2 {
		if v := <-got; v != 7 {
			t.Fatalf("waiter got %d, want 7", v)
		}
	}
	if v, err := f.Wait(); v != 7 || err != nil {
		t.Fatalf("Wait after Commit = %d, %v", v, err)
	}
}

// TestMapRunOwnerPanic: a panicking owner re-raises its own value, every
// flight it owned wakes its waiters with an *OwnerPanic, and the keys leave
// the map so the next request starts afresh.
func TestMapRunOwnerPanic(t *testing.T) {
	var mu sync.Mutex
	m := NewMap[int](4)
	mu.Lock()
	fs := []*Entry[int]{m.Start("a"), m.Start("b")}
	mu.Unlock()

	errs := make(chan error, len(fs))
	for _, f := range fs {
		go func() {
			_, err := f.Wait()
			errs <- err
		}()
	}
	func() {
		defer func() {
			if p := recover(); p != "boom" {
				t.Errorf("owner re-panicked with %v, want its own value", p)
			}
		}()
		m.Run(&mu, fs, func() { panic("boom") })
	}()
	for range fs {
		select {
		case err := <-errs:
			var op *OwnerPanic
			if !errors.As(err, &op) || op.Value != "boom" {
				t.Errorf("waiter got %v, want an OwnerPanic carrying boom", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("waiter still parked after the owner panicked")
		}
	}
	for _, k := range []string{"a", "b"} {
		if _, f, ok := m.Lookup([]byte(k)); f != nil || ok {
			t.Fatal("failed flights wedged their keys")
		}
	}
	if len(m.items) != 0 || m.Len() != 0 {
		t.Fatal("failed flights left entries behind")
	}
	if !mu.TryLock() {
		t.Fatal("Run left the caller's mutex locked")
	}
	mu.Unlock()

	ran := false
	m.Run(&mu, nil, func() { ran = true })
	if !ran {
		t.Fatal("Run did not call compute")
	}
}

// Get is Lookup for a caller that never meets a flight.
func (m *Map[V]) Get(key []byte) (V, bool) {
	v, _, ok := m.Lookup(key)
	return v, ok
}
