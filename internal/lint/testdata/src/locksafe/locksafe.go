// Package locksafe is the fixture for the locksafe analyzer: blocking
// operations under a scheduler-style mutex, and the sanctioned shapes —
// unlock-before-block, non-blocking select, goroutine handoff.
package locksafe

import (
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/lru"
	"repro/internal/model"
)

type box struct {
	mu sync.Mutex
	ch chan int
	n  int
}

// Positive: channel send while holding the mutex.
func (b *box) sendLocked() {
	b.mu.Lock()
	b.ch <- 1 // want `channel send while holding b.mu`
	b.mu.Unlock()
}

// Positive: channel receive while holding the mutex.
func (b *box) recvLocked() {
	b.mu.Lock()
	defer b.mu.Unlock()
	<-b.ch // want `channel receive while holding b.mu`
}

// Positive: defer-unlock holds to function end, so the sleep is under lock.
func (b *box) sleepLocked() {
	b.mu.Lock()
	defer b.mu.Unlock()
	time.Sleep(time.Millisecond) // want `time.Sleep while holding b.mu`
}

// Positive: blocking select with no default clause.
func (b *box) selectLocked() {
	b.mu.Lock()
	defer b.mu.Unlock()
	select { // want `blocking select while holding b.mu`
	case v := <-b.ch:
		b.n = v
	}
}

// Positive: unbounded wait on a WaitGroup under lock.
func (b *box) waitLocked(wg *sync.WaitGroup) {
	b.mu.Lock()
	defer b.mu.Unlock()
	wg.Wait() // want `WaitGroup.Wait .* while holding b.mu`
}

// Positive: device dispatch under lock — the convoy the contract forbids.
func (b *box) dispatchLocked(d *device.Device, ctxs [][]model.Token) {
	b.mu.Lock()
	defer b.mu.Unlock()
	d.Forward(ctxs) // want `Device.Forward .* while holding b.mu`
}

// Positive: the incremental entry points take the same dispatch path.
func (b *box) extendLocked(d *device.Device, states []model.DecodeState, toks []model.Token) {
	b.mu.Lock()
	defer b.mu.Unlock()
	d.ExtendBatch(states, toks) // want `Device.ExtendBatch .* while holding b.mu`
}

// Positive: waiting on a single flight under the lock its owner needs to
// finish it.
func (b *box) flightWaitLocked(f *lru.Entry[int]) {
	b.mu.Lock()
	defer b.mu.Unlock()
	f.Wait() // want `Entry.Wait .* while holding b.mu`
}

// Negative: unlock before the blocking operation.
func (b *box) sendUnlocked() {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
	b.ch <- b.n
}

// Negative: the non-blocking select-with-default idiom.
func (b *box) trySend() {
	b.mu.Lock()
	defer b.mu.Unlock()
	select {
	case b.ch <- 1:
	default:
	}
}

// Negative: a goroutine spawned under the lock runs outside it.
func (b *box) spawn() {
	b.mu.Lock()
	defer b.mu.Unlock()
	go func() {
		b.ch <- 1
	}()
}

// Negative: dispatch with no lock held at all.
func (b *box) dispatchUnlocked(d *device.Device, ctxs [][]model.Token) {
	d.Forward(ctxs)
}

// Suppressed: an audited send on a buffered signal channel.
func (b *box) auditedSend() {
	b.mu.Lock()
	defer b.mu.Unlock()
	//relm:allow(locksafe) capacity-1 signal channel owned by this box; never blocks
	b.ch <- 1 // wantallow `channel send while holding b.mu`
}
