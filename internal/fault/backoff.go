package fault

import (
	"context"
	"fmt"
	"time"
)

// Backoff is a bounded exponential retry policy with deterministic jitter.
// Delays double from Base up to Max; each delay is jittered ±25% by hashing
// (Seed, attempt), so two retry sites never lockstep into synchronized
// thundering herds yet every run of a given seed waits the same schedule —
// the determinism the chaos gate replays depend on.
type Backoff struct {
	// Base is the first retry delay (default 1ms).
	Base time.Duration
	// Max caps any single delay (default 100ms).
	Max time.Duration
	// Attempts is the total attempt budget, including the first call
	// (default 4; 1 means no retries).
	Attempts int
	// Seed identifies the jitter stream (a job ID hash, a shard index — any
	// stable identity).
	Seed uint64
	// OnRetry, when set, observes each retry decision: the attempt number
	// just failed (1-based) and its transient error. Used for retry
	// accounting.
	OnRetry func(attempt int, err error)
}

func (b Backoff) defaults() Backoff {
	if b.Base <= 0 {
		b.Base = time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 100 * time.Millisecond
	}
	if b.Attempts <= 0 {
		b.Attempts = 4
	}
	return b
}

// Delay returns the jittered delay before retry attempt (0-based: the wait
// after the first failure is Delay(0)). Pure function of (policy, attempt).
func (b Backoff) Delay(attempt int) time.Duration {
	b = b.defaults()
	d := b.Base
	for i := 0; i < attempt && d < b.Max; i++ {
		d *= 2
	}
	if d > b.Max {
		d = b.Max
	}
	// Deterministic ±25% jitter from the (seed, attempt) hash.
	frac := unitHash(b.Seed ^ (uint64(attempt) + 0x9e3779b97f4a7c15))
	return d + time.Duration((frac-0.5)*0.5*float64(d))
}

// Retry runs fn under the policy: transient errors (per IsTransient) are
// retried after a jittered backoff delay until the attempt budget runs out;
// any other error — permanent, unclassified, or ctx cancellation — returns
// immediately. An exhausted budget returns the last transient error wrapped
// in ErrExhausted, which is itself no longer transient: the caller's own
// retry layers must not double-spend on it.
func (b Backoff) Retry(ctx context.Context, fn func() error) error {
	b = b.defaults()
	for attempt := 1; ; attempt++ {
		err := fn()
		if err == nil {
			return nil
		}
		if !IsTransient(err) {
			return err
		}
		if attempt >= b.Attempts {
			return fmt.Errorf("%w (%d attempts): %s", ErrExhausted, b.Attempts, err)
		}
		if b.OnRetry != nil {
			b.OnRetry(attempt, err)
		}
		t := time.NewTimer(b.Delay(attempt - 1))
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
}

// SeedFrom hashes a string identity into a jitter-stream seed.
func SeedFrom(parts ...string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h = (h ^ uint64(p[i])) * 0x100000001b3
		}
		h = (h ^ '|') * 0x100000001b3
	}
	return h
}
