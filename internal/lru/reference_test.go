package lru

// refMap and refGroup restate the bounded map and the single-flight table as
// two structures, the map holding only resident keys and the table only keys
// in flight, for FuzzMap to hold Map to. They share Map's sketch and hash, so
// one access sequence must leave both with the same sketch words.
type refMap struct {
	cap, winCap  int
	items        map[string]*Elem[refEntry]
	window, main List[refEntry]
	freq         sketch
}

type refEntry struct {
	key string
	val int
}

func newRefMap(capacity int) *refMap {
	return &refMap{cap: capacity, winCap: max(1, capacity/100), freq: newSketch(capacity), items: map[string]*Elem[refEntry]{}}
}

func (m *refMap) Get(key string) (int, bool) {
	e, ok := m.items[key]
	if !ok {
		return 0, false
	}
	m.freq.add(hash(key))
	if l := e.list; l.front != e {
		e.Remove()
		l.PushFront(e)
	}
	return e.Value.val, true
}

func (m *refMap) Has(key string) bool { return m.items[key] != nil }

func (m *refMap) Add(key string, v int) {
	m.freq.add(hash(key))
	if _, ok := m.items[key]; ok {
		return
	}
	e := &Elem[refEntry]{Value: refEntry{key: key, val: v}}
	m.items[key] = e
	m.window.PushFront(e)
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

// keys lists the resident keys, window then main, front to back.
func (m *refMap) keys() []string {
	var keys []string
	for _, l := range []*List[refEntry]{&m.window, &m.main} {
		for e := l.front; e != nil; e = e.next {
			keys = append(keys, e.Value.key)
		}
	}
	return keys
}

// refGroup is the single-flight table: a key is in it from Start to Finish,
// and a flight holds what its waiters wake to.
type refGroup map[string]*refFlight

type refFlight struct {
	val int
	err error
}

func (g refGroup) Join(key string) *refFlight { return g[key] }

func (g refGroup) Start(key string) *refFlight {
	f := &refFlight{}
	g[key] = f
	return f
}

func (g refGroup) Finish(key string, v int, err error) {
	f := g[key]
	delete(g, key)
	f.val, f.err = v, err
}
