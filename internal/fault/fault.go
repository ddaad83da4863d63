// Package fault is the deterministic fault-injection substrate (DESIGN.md
// decision 15). The ROADMAP's north star is a fleet where partial failure is
// the common case; before anything is distributed, every layer that touches
// the outside world — device dispatch, the run ledger's file I/O, the KV
// arena's promote path, the HTTP handlers — must be able to fail on demand,
// deterministically, so chaos runs replay bit-identically and resilience
// claims are tested rather than asserted.
//
// The model is a registry of named injection points compiled into the
// production code paths. With no injector enabled, a point is one atomic
// pointer load — nil — and nothing else. An enabled Injector gives each
// point a Spec (error probability, fail-the-first-N, latency spikes, torn
// writes) and decides each call by hashing (seed, point, call index): the
// decision sequence at every point is a pure function of the seed, not of
// goroutine interleaving or wall clock, so the same scenario produces the
// same fault pattern on every run.
//
// Classification is the other half of the contract: every injected error is
// a *Fault carrying a Class, and errors.Is(err, ErrTransient) /
// errors.Is(err, ErrPermanent) is how retry layers decide. Real-world errors
// can join the taxonomy via MarkTransient/MarkPermanent; an unclassified
// error is treated as permanent — retrying an error of unknown provenance is
// how corruption spreads.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Injection points wired into the tree. A point name is part of the chaos
// CLI surface (relm-serve -chaos, relm-audit -chaos), so renames are
// breaking.
const (
	// Device dispatch entry points: a hit is the error the call returns,
	// modelling an accelerator fault surfacing on the stream that dispatched
	// the batch.
	DeviceForward  = "device.forward"
	DevicePrefill  = "device.prefill"
	DeviceExtend   = "device.extend"
	DeviceScoreAll = "device.scoreall"
	// BatcherExecute fails one fused dispatch inside the fusion scheduler:
	// every request in that batch, and no other, gets the fault as its error.
	BatcherExecute = "batcher.execute"
	// Ledger I/O: Append returns the fault before writing any bytes (clean,
	// retry-safe) unless the spec is torn, in which case it writes a partial
	// line first — the crash signature OpenLedger repairs. Sync models fsync
	// failure; Close a close-time flush failure.
	LedgerAppend = "ledger.append"
	LedgerSync   = "ledger.sync"
	LedgerClose  = "ledger.close"
	// KVPromote degrades an arena lookup to a miss: the caller recomputes
	// via Prefill, trading time for identical bytes.
	KVPromote = "kvcache.promote"
	// Server admission points: a transient hit answers 503 + Retry-After, a
	// permanent one 500.
	ServerSearch = "server.search"
	ServerJobs   = "server.jobs"
)

// knownPoints validates scenario specs; an unknown name is a typo, not a
// request.
var knownPoints = map[string]bool{
	DeviceForward:  true,
	DevicePrefill:  true,
	DeviceExtend:   true,
	DeviceScoreAll: true,
	BatcherExecute: true,
	LedgerAppend:   true,
	LedgerSync:     true,
	LedgerClose:    true,
	KVPromote:      true,
	ServerSearch:   true,
	ServerJobs:     true,
}

// Class divides injected (and marked) errors into the two retry categories.
type Class int

const (
	// Transient faults are expected to succeed on retry: the I/O hiccup, the
	// dispatch glitch. Retry layers spend budget on them.
	Transient Class = iota
	// Permanent faults will fail the same way every time: retrying wastes
	// budget at best and doubles side effects at worst.
	Permanent
)

func (c Class) String() string {
	if c == Permanent {
		return "permanent"
	}
	return "transient"
}

// Sentinels for errors.Is classification. A *Fault (and anything wrapped by
// MarkTransient/MarkPermanent) matches exactly one of them.
var (
	ErrTransient = errors.New("fault: transient")
	ErrPermanent = errors.New("fault: permanent")
	// ErrExhausted wraps the last transient error when a retry budget runs
	// out; the combined error is no longer transient.
	ErrExhausted = errors.New("fault: retry budget exhausted")
)

// Fault is one injected failure: which point fired, on which invocation, and
// how the caller should treat it. It is the error value every armed point
// returns, device dispatch and I/O alike.
type Fault struct {
	Point string
	Call  int64 // 1-based invocation index at the point
	Class Class
	// Torn marks a ledger append that wrote a partial line before failing;
	// retrying it would append past garbage, so Torn faults are permanent by
	// construction.
	Torn bool
	// Latency is virtual stall time the hit charges (the device and batcher
	// points feed it to the virtual clock). A hit can be latency-only: Failure reports
	// whether an error should be returned as well.
	Latency time.Duration
	failure bool
}

func (f *Fault) Error() string {
	kind := f.Class.String()
	if f.Torn {
		kind = "torn"
	}
	return fmt.Sprintf("fault: injected %s failure at %s (call %d)", kind, f.Point, f.Call)
}

// Failure reports whether the hit is an error (vs a pure latency spike).
func (f *Fault) Failure() bool { return f != nil && f.failure }

// Is classifies the fault for errors.Is: transient faults match
// ErrTransient, permanent ones ErrPermanent.
func (f *Fault) Is(target error) bool {
	if target == ErrTransient {
		return f.Class == Transient
	}
	if target == ErrPermanent {
		return f.Class == Permanent
	}
	return false
}

// classified wraps a real error into the taxonomy.
type classified struct {
	err   error
	class Class
}

func (c *classified) Error() string { return c.class.String() + ": " + c.err.Error() }
func (c *classified) Unwrap() error { return c.err }
func (c *classified) Is(target error) bool {
	if target == ErrTransient {
		return c.class == Transient
	}
	if target == ErrPermanent {
		return c.class == Permanent
	}
	return false
}

// MarkTransient classifies err as worth retrying. nil stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &classified{err: err, class: Transient}
}

// MarkPermanent classifies err as not worth retrying. nil stays nil.
func MarkPermanent(err error) error {
	if err == nil {
		return nil
	}
	return &classified{err: err, class: Permanent}
}

// IsTransient reports whether err is classified transient. Unclassified
// errors are not: retry layers only spend budget on declared-transient
// failures.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// Spec configures one injection point within a scenario.
type Spec struct {
	// Prob injects a failure on each call independently with this
	// probability, decided by hashing (seed, point, call index).
	Prob float64
	// FailN injects a failure on the first N calls, then recovers — the
	// fail-N-then-recover shape retry budgets are sized against. Takes
	// precedence over Prob for those calls.
	FailN int
	// Class is the classification of injected failures (default Transient).
	Class Class
	// Torn makes ledger-append failures write a partial record line before
	// erroring (forces Class Permanent — see Fault.Torn).
	Torn bool
	// Latency is a virtual latency spike charged when LatProb triggers
	// (LatProb 0 with Latency > 0 means every call). Latency hits compose
	// with error hits: a call can stall and then fail.
	Latency time.Duration
	LatProb float64
}

// point is one armed injection point: its spec plus call/injection counters.
type point struct {
	spec     Spec
	calls    atomic.Int64
	injected atomic.Int64
}

// Injector decides fault injection for a set of points under one seed. Arm
// points with Set before sharing it via Enable; the point table is immutable
// afterwards, so Hit takes no locks.
type Injector struct {
	seed   uint64
	points map[string]*point
}

// New creates an empty injector for the given scenario seed.
func New(seed int64) *Injector {
	return &Injector{seed: uint64(seed), points: map[string]*point{}}
}

// Set arms one point. Call before Enable; the table is read lock-free.
func (in *Injector) Set(name string, s Spec) *Injector {
	if s.Torn {
		s.Class = Permanent
	}
	in.points[name] = &point{spec: s}
	return in
}

// Injected reports how many failures the point has injected so far.
func (in *Injector) Injected(name string) int64 {
	if p := in.points[name]; p != nil {
		return p.injected.Load()
	}
	return 0
}

// Calls reports how many times the point has been consulted.
func (in *Injector) Calls(name string) int64 {
	if p := in.points[name]; p != nil {
		return p.calls.Load()
	}
	return 0
}

// Hit consults the injector for one invocation of the point. It returns nil
// (the overwhelmingly common case), a latency-only *Fault, or a failure
// *Fault the caller must surface. The decision depends only on (seed, point,
// call index): per-point call sequences replay identically for a given
// scenario regardless of goroutine interleaving.
func (in *Injector) Hit(name string) *Fault {
	p := in.points[name]
	if p == nil {
		return nil
	}
	call := p.calls.Add(1)
	var f *Fault
	if p.spec.Latency > 0 {
		if p.spec.LatProb <= 0 || decide(in.seed, name, ^call, p.spec.LatProb) {
			f = &Fault{Point: name, Call: call, Class: p.spec.Class, Latency: p.spec.Latency}
		}
	}
	fail := false
	switch {
	case p.spec.FailN > 0 && call <= int64(p.spec.FailN):
		fail = true
	case p.spec.Prob > 0:
		fail = decide(in.seed, name, call, p.spec.Prob)
	}
	if fail {
		if f == nil {
			f = &Fault{Point: name, Call: call, Class: p.spec.Class}
		}
		f.failure = true
		f.Torn = p.spec.Torn
		p.injected.Add(1)
	}
	return f
}

// decide hashes (seed, point, call) into [0, 1) and compares against prob.
// The call index is folded in directly (not via a shared rand stream), so
// concurrent points never perturb each other's sequences.
func decide(seed uint64, name string, call int64, prob float64) bool {
	h := seed
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 0x100000001b3
	}
	h ^= uint64(call)
	return unitHash(h+0x9e3779b97f4a7c15) < prob
}

// unitHash maps h into [0, 1) through the splitmix64 finalizer's avalanche,
// so neighbouring inputs (call indices, retry attempts) are uncorrelated.
func unitHash(h uint64) float64 {
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11) / (1 << 53)
}

// The process-wide injector. Production code consults it through the
// package-level Hit; nil (the default) costs one atomic load per point.
var enabled atomic.Pointer[Injector]

// Enable installs in as the process-wide injector (nil is equivalent to
// Disable). Tests pair it with a deferred Disable.
func Enable(in *Injector) {
	enabled.Store(in)
}

// Disable removes the process-wide injector: every point reverts to the
// nil fast path.
func Disable() {
	enabled.Store(nil)
}

// Enabled returns the process-wide injector, or nil.
func Enabled() *Injector { return enabled.Load() }

// Hit consults the process-wide injector for one invocation of the point.
// Returns nil when no injector is enabled or the point is not armed.
func Hit(name string) *Fault {
	in := enabled.Load()
	if in == nil {
		return nil
	}
	return in.Hit(name)
}

// ParseScenario compiles a chaos-flag scenario string into an Injector.
// Grammar: comma-separated `point=spec` entries, each spec a `+`-joined
// token list:
//
//	p<float>   error probability per call        device.forward=p0.05
//	n<int>     fail the first N calls            ledger.sync=n1
//	lat<dur>   latency spike (Go duration)       device.extend=p0.02+lat5ms
//	lp<float>  latency-spike probability         device.forward=lat10ms+lp0.1
//	perm       classify failures permanent       server.search=n1+perm
//	torn       ledger append: torn partial write ledger.append=n1+torn
//
// Example: "device.forward=p0.05,ledger.sync=n1,kvcache.promote=p0.1".
func ParseScenario(s string, seed int64) (*Injector, error) {
	in := New(seed)
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, rest, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("fault: bad scenario entry %q (want point=spec)", entry)
		}
		if !knownPoints[name] {
			return nil, fmt.Errorf("fault: unknown injection point %q (known: %s)", name, strings.Join(PointNames(), ", "))
		}
		var spec Spec
		for _, tok := range strings.Split(rest, "+") {
			switch {
			case tok == "perm":
				spec.Class = Permanent
			case tok == "torn":
				spec.Torn = true
			case strings.HasPrefix(tok, "lat"):
				d, err := time.ParseDuration(tok[3:])
				if err != nil || d <= 0 {
					return nil, fmt.Errorf("fault: bad latency %q in %q", tok, entry)
				}
				spec.Latency = d
			case strings.HasPrefix(tok, "lp"):
				p, ok := parseProb(tok[2:])
				if !ok {
					return nil, fmt.Errorf("fault: bad latency probability %q in %q", tok, entry)
				}
				spec.LatProb = p
			case strings.HasPrefix(tok, "p"):
				p, ok := parseProb(tok[1:])
				if !ok {
					return nil, fmt.Errorf("fault: bad probability %q in %q", tok, entry)
				}
				spec.Prob = p
			case strings.HasPrefix(tok, "n"):
				n, err := strconv.Atoi(tok[1:])
				if err != nil || n < 0 {
					return nil, fmt.Errorf("fault: bad fail count %q in %q", tok, entry)
				}
				spec.FailN = n
			default:
				return nil, fmt.Errorf("fault: unknown spec token %q in %q", tok, entry)
			}
		}
		in.Set(name, spec)
	}
	return in, nil
}

// parseProb parses a probability in [0, 1]. The range test is written so
// NaN — which strconv.ParseFloat accepts and every comparison rejects —
// fails it.
func parseProb(s string) (float64, bool) {
	p, err := strconv.ParseFloat(s, 64)
	return p, err == nil && p >= 0 && p <= 1
}

// PointNames lists the known injection points, sorted — the CLI help and
// error-message surface.
func PointNames() []string {
	out := make([]string, 0, len(knownPoints))
	for n := range knownPoints {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
