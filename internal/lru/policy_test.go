package lru

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
)

// request is how every cache in the repo uses a Map: a Get, and on a miss an
// Add of the computed value. It reports whether the request hit.
func request(m *Map[int], key string) bool {
	if _, ok := m.Get([]byte(key)); ok {
		return true
	}
	m.Add(key, len(key))
	return false
}

func keyOf(set string, i int) string { return fmt.Sprintf("%s%05d", set, i) }

// TestMapKeepsPartOfALoopLargerThanItself: a loop over 1.25 × capacity keys
// is LRU's worst case — every request evicts the key needed next, so no pass
// hits at all. Frequency-gated admission keeps most of the loop resident.
func TestMapKeepsPartOfALoopLargerThanItself(t *testing.T) {
	const capacity = 1000
	m := NewMap[int](capacity)
	for pass := 1; pass <= 3; pass++ {
		hits := 0
		for i := range capacity * 5 / 4 {
			if request(m, keyOf("k", i)) {
				hits++
			}
		}
		if m.Len() > capacity {
			t.Fatalf("pass %d: len %d past capacity %d", pass, m.Len(), capacity)
		}
		if pass > 1 && hits < capacity*5/8 {
			t.Errorf("pass %d: %d of %d requests hit, want at least half", pass, hits, capacity*5/4)
		}
	}
}

// TestMapWindowHoldsFreshKeys: a fresh key set no larger than the window hits
// from its second request on, even when every main entry is counted more
// often than the fresh keys will be for a while. Without the window each new
// key would face the main victim at once, lose, and be computed on every
// request.
func TestMapWindowHoldsFreshKeys(t *testing.T) {
	const capacity = 200 // window 2
	m := NewMap[int](capacity)
	for range 4 {
		for i := range capacity * 2 {
			request(m, keyOf("warm", i))
		}
	}
	for round := range 5 {
		for i := range m.winCap {
			if hit := request(m, keyOf("fresh", i)); hit != (round > 0) {
				t.Fatalf("request %d of fresh key %d: hit = %v", round+1, i, hit)
			}
		}
	}
}

// TestMapAgingDisplacesOldHotSet: counters saturate at 15, so without aging a
// set counted 15 times would hold its place forever. Halving every counter
// after 10 × capacity requests lets a new hot set displace it.
func TestMapAgingDisplacesOldHotSet(t *testing.T) {
	const capacity = 64 // window 1, main 63; the sketch halves every 640 requests
	m := NewMap[int](capacity)
	const oldSet, newSet = 32, 48
	for range 15 { // 480 requests: every old key saturates, no halving yet
		for i := range oldSet {
			request(m, keyOf("old", i))
		}
	}
	residentOld := func() int {
		n := 0
		for i := range oldSet {
			if m.Has([]byte(keyOf("old", i))) {
				n++
			}
		}
		return n
	}
	passes := 0
	pass := func() (hits int) {
		passes++
		for i := range newSet {
			if request(m, keyOf("new", i)) {
				hits++
			}
		}
		return hits
	}
	for range 3 { // 624 requests in all: still before the first halving
		pass()
	}
	if n := residentOld(); n != oldSet {
		t.Fatalf("before aging %d of %d saturated old keys resident; a new key cannot outcount 15", n, oldSet)
	}
	for pass() < newSet {
		if passes > 60 {
			t.Fatalf("after %d passes the new hot set still misses; old keys resident: %d", passes, residentOld())
		}
	}
	if n := residentOld(); n > capacity-newSet {
		t.Fatalf("%d old keys resident beside all %d new ones, past capacity %d", n, newSet, capacity)
	}
	if m.Len() > capacity {
		t.Fatalf("len %d past capacity %d", m.Len(), capacity)
	}
}

// TestMapSameSequenceSameKeys: the sketch's hash has a fixed seed, so two
// maps fed one access sequence hold the same entries in the same order.
func TestMapSameSequenceSameKeys(t *testing.T) {
	maps := []*Map[int]{NewMap[int](100), NewMap[int](100)}
	for _, m := range maps {
		r := rand.New(rand.NewPCG(1, 2))
		for range 20000 {
			request(m, keyOf("k", int(r.ExpFloat64()*80)))
		}
	}
	a, b := listKeys(&maps[0].window, &maps[0].main), listKeys(&maps[1].window, &maps[1].main)
	if !slices.Equal(a, b) || len(a) != 100 {
		t.Fatalf("two maps given one sequence hold different keys:\n%v\n%v", a, b)
	}
}

// TestMapRejectedAddKeepsIncumbent: a candidate that loses to the main
// victim leaves; the victim keeps its value and the map its length.
func TestMapRejectedAddKeepsIncumbent(t *testing.T) {
	m := NewMap[int](4) // window 1, main 3
	for i, k := range []string{"a", "b", "c", "d"} {
		m.Add(k, i)
	}
	for _, k := range []string{"a", "b", "c"} { // main [c b a], each counted twice
		m.Get([]byte(k))
	}
	m.Add("e", 4) // pushes "d" (count 1) out against "a" (count 2): "d" leaves
	if m.Len() != 4 || m.Has([]byte("d")) || !m.Has([]byte("e")) {
		t.Fatalf("rejected candidate d: len %d, d resident %v", m.Len(), m.Has([]byte("d")))
	}
	for i, k := range []string{"a", "b", "c"} {
		if v, ok := m.Get([]byte(k)); !ok || v != i {
			t.Fatalf("incumbent %s = %d, %v after a rejected Add; want %d", k, v, ok, i)
		}
	}
}

// TestNewMapGrowsAsItFills: a map holds no room for entries it has not
// stored; a large capacity costs its sketch and little else up front.
func TestNewMapGrowsAsItFills(t *testing.T) {
	const capacity = 1 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := NewMap[int](capacity)
	runtime.ReadMemStats(&after)
	sketchBytes := uint64(len(m.freq.words) * 8)
	if got := after.TotalAlloc - before.TotalAlloc; got > sketchBytes+64<<10 {
		t.Fatalf("NewMap(%d) allocated %d KiB, want at most the %d KiB sketch + 64 KiB",
			capacity, got>>10, sketchBytes>>10)
	}
	runtime.KeepAlive(m)
}

// listKeys returns the keys of ls, front to back, one list after another.
func listKeys(ls ...*List[*Entry[int]]) []string {
	var keys []string
	for _, l := range ls {
		for e := l.front; e != nil; e = e.next {
			keys = append(keys, e.Value.key)
		}
	}
	return keys
}

// FuzzMap replays a byte string as requests over a small key space on two
// maps, one of which skips every Has, and on refMap and refGroup, the bounded
// map and single-flight table the Map absorbed (reference_test.go). A byte
// below 150 is a Get, Has or Add of one of 50 keys; from 150 on it is a
// flight operation on one of the first 35: a request through Lookup that
// starts a flight on a miss, a commit, or a failed commit. An Add of a key
// in flight is a publish racing the flight's owner, and its owner commits
// at once. After each request: Len within capacity and equal to what the
// window and main lists hold, which are exactly the Go map's resident keys;
// the Go map's other keys are exactly the flights open; a flight's waiters
// wake to its result; Has changes nothing; and the Map holds the same keys in
// the same order, with the same values and sketch words, as the reference.
func FuzzMap(f *testing.F) {
	f.Add([]byte("\x03abcabcabc"))
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09"))
	f.Add([]byte("\x02\x96\x99\x96\x97\x9c\x9a\x97\x9d\x98\x96"))
	f.Add([]byte("\x01\x96\x99\x02\x97\x96\x98\x96\x05\x9c\x97"))
	f.Add([]byte("\x03\x96\x98\x96\x01\x96\x97\x00\x96\x01"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		capacity := 1 + int(ops[0])%40
		m, twin, ref, group := NewMap[int](capacity), NewMap[int](capacity), newRefMap(capacity), refGroup{}
		type flight struct{ m, twin *Entry[int] }
		flights := map[string]flight{}
		// end ends key's flight with v, or fails it with err, on both maps as
		// Commit or Drop and on the reference as Add and Finish; its waiters
		// must wake to what the reference's do. A flight an Add committed
		// meanwhile woke its waiters then, to the Add's value: wantV.
		end := func(i int, key string, v int, err error, wantV int) {
			fl := flights[key]
			delete(flights, key)
			if err == nil {
				m.Commit(fl.m, v)
				twin.Commit(fl.twin, v)
				ref.Add(key, v)
			} else {
				m.Drop(fl.m, 0, err)
				twin.Drop(fl.twin, 0, err)
			}
			rf := group.Join(key)
			group.Finish(key, wantV, err)
			if got, gerr := fl.m.Wait(); got != rf.val || gerr != rf.err {
				t.Fatalf("op %d: flight %q woke to %d, %v; want %d, %v", i, key, got, gerr, rf.val, rf.err)
			}
		}
		failed := errors.New("owner failed")
		for i, op := range ops[1:] {
			if op < 150 {
				key := string(rune('a' + op/3))
				switch op % 3 {
				case 0:
					v, ok := m.Get([]byte(key))
					twin.Get([]byte(key))
					if want, in := ref.Get(key); ok != in || v != want {
						t.Fatalf("op %d: Get(%q) = %d, %v; want %d, %v", i, key, v, ok, want, in)
					}
				case 1:
					if got := m.Has([]byte(key)); got != ref.Has(key) {
						t.Fatalf("op %d: Has(%q) = %v, want %v", i, key, got, !got)
					}
				case 2:
					if _, open := flights[key]; open {
						// A publish racing the owner, who then commits.
						m.Add(key, i)
						twin.Add(key, i)
						ref.Add(key, i)
						end(i, key, i+1, nil, i)
						break
					}
					m.Add(key, i)
					twin.Add(key, i)
					ref.Add(key, i)
				}
			} else {
				key := string(rune('a' + (op-150)/3))
				switch (op - 150) % 3 {
				case 0:
					v, f, ok := m.Lookup([]byte(key))
					_, tf, _ := twin.Lookup([]byte(key))
					want, in := ref.Get(key)
					rf := group.Join(key)
					if in {
						rf = nil // the reference's caller joins only on a miss
					}
					if ok != in || v != want || (f != nil) != (rf != nil) || f != flights[key].m {
						t.Fatalf("op %d: Lookup(%q) = %d, %v, flight %v; want %d, %v, flight %v", i, key, v, ok, f != nil, want, in, rf != nil)
					}
					if !ok && f == nil {
						flights[key] = flight{m.Start(key), twin.Start(key)}
						group.Start(key)
					} else if tf != flights[key].twin {
						t.Fatalf("op %d: the twin's Lookup(%q) disagrees", i, key)
					}
				case 1:
					if _, open := flights[key]; open {
						end(i, key, i, nil, i)
					}
				case 2:
					if _, open := flights[key]; open {
						end(i, key, 0, failed, 0)
					}
				}
			}
			if m.Len() > capacity || m.window.Len() > m.winCap {
				t.Fatalf("op %d: len %d (window %d) past capacity %d", i, m.Len(), m.window.Len(), capacity)
			}
			keys := listKeys(&m.window, &m.main)
			if len(keys) != m.Len() || len(keys)+len(flights) != len(m.items) {
				t.Fatalf("op %d: lists hold %d keys, Len %d, %d flights, map %d", i, len(keys), m.Len(), len(flights), len(m.items))
			}
			for k, e := range m.items {
				if e.flying != (flights[k].m == e) || !e.flying && e.elem.list != &m.window && e.elem.list != &m.main || e.key != k {
					t.Fatalf("op %d: key %q is neither in a list nor in flight", i, k)
				}
			}
			if !slices.Equal(keys, listKeys(&twin.window, &twin.main)) || !slices.Equal(m.freq.words, twin.freq.words) {
				t.Fatalf("op %d: Has changed the map's state", i)
			}
			if !slices.Equal(keys, ref.keys()) || !slices.Equal(m.freq.words, ref.freq.words) {
				t.Fatalf("op %d: map holds %v, the reference %v (or their sketches differ)", i, keys, ref.keys())
			}
		}
	})
}
