// Package lru is the repo's one recency list and the bounded map on top of
// it, which is also the single flight over its keys (DESIGN.md decision 4),
// shared by the logit cache, the plan cache and the KV arena. Nothing here
// locks: the caller's mutex guards every call but Entry.Wait and Map.Run, so
// a batch of lookups and starts can share one critical section. The map's
// eviction rule is windowed TinyLFU; the KV arena's lists stay plain LRU.
package lru

import (
	"errors"
	"math/bits"
	"sync"
)

// Elem is one entry of a List. The caller allocates it — typically embedded
// in its own node, with Value pointing back at the node — so linking and
// unlinking allocate nothing.
type Elem[V any] struct {
	prev, next *Elem[V]
	list       *List[V]
	Value      V
}

// Listed reports whether e is in a list.
func (e *Elem[V]) Listed() bool { return e.list != nil }

// Remove takes e out of its list; it is a no-op when e is in none.
func (e *Elem[V]) Remove() {
	l := e.list
	if l == nil {
		return
	}
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.front = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.back = e.prev
	}
	e.prev, e.next, e.list = nil, nil, nil
	l.n--
}

// List is an intrusive doubly linked list in recency order: the front is the
// most recently used end, the back the next to evict. An Elem is in at most
// one List. The zero value is an empty list.
type List[V any] struct {
	front, back *Elem[V]
	n           int
}

// Len reports the number of elements in l.
func (l *List[V]) Len() int { return l.n }

// Back returns the least recently used element, or nil when l is empty.
func (l *List[V]) Back() *Elem[V] { return l.back }

// PushFront inserts e, which must be in no list, as the most recently used.
func (l *List[V]) PushFront(e *Elem[V]) {
	e.prev, e.next, e.list = nil, l.front, l
	if l.front != nil {
		l.front.prev = e
	} else {
		l.back = e
	}
	l.front = e
	l.n++
}

// PushBack inserts e, which must be in no list, as the least recently used.
func (l *List[V]) PushBack(e *Elem[V]) {
	e.prev, e.next, e.list = l.back, nil, l
	if l.back != nil {
		l.back.next = e
	} else {
		l.front = e
	}
	l.back = e
	l.n++
}

// Map is a string-keyed map of at most a fixed number of entries under
// windowed TinyLFU (DESIGN.md decision 4): a new entry enters a small LRU
// window, and the one the window pushes out replaces the main LRU's victim
// only if a sketch counts it requested more often. A key is absent, in
// flight or resident. Lookups take the key as bytes and allocate nothing.
type Map[V any] struct {
	cap, winCap  int
	items        map[string]*Entry[V]
	window, main List[*Entry[V]]
	freq         sketch
}

// Entry is one key's record in a Map, from the miss that starts its flight
// to its eviction. In flight it is in no list and cannot be evicted; its
// owner ends the flight with Commit or Drop, and other callers Wait on it.
type Entry[V any] struct {
	elem   Elem[*Entry[V]]
	key    string
	val    V
	err    error
	flying bool
	done   sync.WaitGroup
}

// NewMap returns an empty map holding at most capacity entries, one percent
// of them (at least one) in the window. The Go map grows as it fills.
func NewMap[V any](capacity int) *Map[V] {
	return &Map[V]{cap: capacity, winCap: max(1, capacity/100), freq: newSketch(capacity), items: map[string]*Entry[V]{}}
}

// Lookup returns the resident value under key, counting the hit and bumping
// it, or, when key is in flight, its entry to Wait on, uncounted.
func (m *Map[V]) Lookup(key []byte) (v V, f *Entry[V], ok bool) {
	e := m.items[string(key)]
	if e == nil || e.flying {
		return v, e, false
	}
	m.freq.add(hash(key))
	if l := e.elem.list; l.front != &e.elem {
		e.elem.Remove()
		l.PushFront(&e.elem)
	}
	return e.val, nil, true
}

// Has reports whether key is resident; it neither counts nor bumps it.
func (m *Map[V]) Has(key []byte) bool {
	e := m.items[string(key)]
	return e != nil && !e.flying
}

// Start inserts an entry in flight under key, which must be absent: the
// caller owns it, computes under Run and ends the flight with Commit or Drop.
func (m *Map[V]) Start(key string) *Entry[V] {
	f := &Entry[V]{key: key, flying: true}
	f.elem.Value = f
	f.done.Add(1)
	m.items[key] = f
	return f
}

// Add counts a request for key and admits v under it, allocating one entry,
// unless key is resident: the incumbent keeps its value and place. An entry
// in flight under key is committed with v.
func (m *Map[V]) Add(key string, v V) {
	e := m.items[key]
	if e == nil {
		e = m.Start(key)
	}
	m.Commit(e, v)
}

// Commit ends f's flight with v, waking its waiters, and admits it: the
// request is counted and f enters the window's front, whose least recent
// entry then leaves or displaces the main list's victim if the sketch counts
// it more often. An f an Add committed meanwhile is Add(key, v).
func (m *Map[V]) Commit(f *Entry[V], v V) {
	if !f.flying {
		if m.items[f.key] == f {
			m.freq.add(hash(f.key))
		} else {
			m.Add(f.key, v)
		}
		return
	}
	f.val, f.flying = v, false
	f.done.Done()
	m.freq.add(hash(f.key))
	m.window.PushFront(&f.elem)
	if m.window.n <= m.winCap {
		return
	}
	cand := m.window.back
	cand.Remove()
	if victim := m.main.back; m.main.n >= m.cap-m.winCap {
		if victim == nil || m.freq.estimate(hash(cand.Value.key)) <= m.freq.estimate(hash(victim.Value.key)) {
			delete(m.items, cand.Value.key)
			return
		}
		victim.Remove()
		delete(m.items, victim.Value.key)
	}
	m.main.PushFront(cand)
}

// Drop ends f's flight without admitting a value: the key leaves the map, so
// the next request computes it afresh, and f's waiters wake to err. It is a
// no-op on an entry an Add committed meanwhile.
func (m *Map[V]) Drop(f *Entry[V], err error) {
	if !f.flying {
		return
	}
	delete(m.items, f.key)
	f.err, f.flying = err, false
	f.done.Done()
}

// ErrAbandoned is what a waiter wakes to when its flight's owner never
// finished computing it: the owner's compute panicked, and the panic went on.
var ErrAbandoned = errors.New("lru: flight abandoned by its owner")

// Run calls compute, the work of the flights fs the caller owns, without the
// caller's lock. If compute does not return, Run drops every flight in fs
// with ErrAbandoned under mu on the way out, so waiters wake and the next
// request computes afresh; it recovers nothing, so a panic goes on unchanged.
func (m *Map[V]) Run(mu sync.Locker, fs []*Entry[V], compute func()) {
	done := false
	defer func() {
		if !done {
			mu.Lock()
			for _, f := range fs {
				m.Drop(f, ErrAbandoned)
			}
			mu.Unlock()
		}
	}()
	compute()
	done = true
}

// Wait blocks until f's flight ends and returns its result.
func (f *Entry[V]) Wait() (V, error) {
	f.done.Wait()
	return f.val, f.err
}

// Len reports the number of entries.
func (m *Map[V]) Len() int { return m.window.n + m.main.n }

// Frequency reports the sketch's estimate of how often key was requested.
func (m *Map[V]) Frequency(key []byte) int { return m.freq.estimate(hash(key)) }

// sketch is a count-min sketch: four rows of 4-bit counters, sixteen to a
// word, each row the next power of two ≥ capacity (and ≥ 16) wide. Halving
// them all every 10 × capacity increments lets a new hot set displace an old.
type sketch struct {
	words     []uint64
	shift     uint // 64 - log2(row width): a row index is a hash's top bits
	n, period int
}

func newSketch(capacity int) sketch {
	w := max(16, 1<<bits.Len(uint(capacity-1)))
	return sketch{words: make([]uint64, w/4), shift: uint(64 - bits.Len(uint(w-1))), period: 10 * capacity}
}

// rowSeeds are odd multipliers that spread one hash into four row indexes.
var rowSeeds = [4]uint64{0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb, 0xd6e8feb86659fd93}

// counter returns the word and bit offset of row i's counter for h.
func (s *sketch) counter(h uint64, i int) (int, uint) {
	c := i<<(64-s.shift) | int(h*rowSeeds[i]>>s.shift)
	return c / 16, uint(c%16) * 4
}

func (s *sketch) add(h uint64) {
	for i := range rowSeeds {
		if w, b := s.counter(h, i); s.words[w]>>b&15 < 15 {
			s.words[w] += 1 << b
		}
	}
	if s.n++; s.n >= s.period {
		s.n = 0
		for i, w := range s.words {
			s.words[i] = w >> 1 & 0x7777777777777777
		}
	}
}

func (s *sketch) estimate(h uint64) int {
	est := 15
	for i := range rowSeeds {
		w, b := s.counter(h, i)
		est = min(est, int(s.words[w]>>b&15))
	}
	return est
}

// hash is FNV-1a with a fixed seed and a final mix: it allocates nothing, and
// one access sequence always gives the same cache contents.
func hash[K string | []byte](k K) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(k); i++ {
		h = (h ^ uint64(k[i])) * 1099511628211
	}
	return (h ^ h>>33) * 0xff51afd7ed558ccd
}
