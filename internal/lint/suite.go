package lint

import "strings"

// ScopedAnalyzer binds an analyzer to the package set whose contract it
// encodes. Determinism only matters where result bytes are produced;
// locksafe only where the scheduler mutexes live; the lifecycle and
// durability contracts hold everywhere.
type ScopedAnalyzer struct {
	Analyzer *Analyzer
	// Scope returns true if the analyzer applies to the package. nil means
	// every package.
	Scope func(pkgPath string) bool
}

// Applies reports whether the analyzer runs on pkgPath.
func (s ScopedAnalyzer) Applies(pkgPath string) bool {
	return s.Scope == nil || s.Scope(pkgPath)
}

func pkgSet(paths ...string) func(string) bool {
	set := map[string]bool{}
	for _, p := range paths {
		set[p] = true
	}
	return func(pkgPath string) bool { return set[pkgPath] }
}

// Suite is the relm-vet analyzer suite: the project invariants, each scoped
// to the packages where its contract is load-bearing (DESIGN.md decision 13).
func Suite() []ScopedAnalyzer {
	return []ScopedAnalyzer{
		{Analyzer: Determinism, Scope: pkgSet(
			"repro/internal/engine",
			"repro/internal/automaton",
			"repro/relm",
		)},
		{Analyzer: StreamClose},
		{Analyzer: AtomicStats},
		{Analyzer: LockSafe, Scope: pkgSet(
			"repro/internal/device",
			"repro/internal/jobs",
			"repro/internal/cache",
			"repro/internal/kvcache",
			"repro/internal/lru",
			"repro/internal/server",
			"repro/relm",
		)},
		{Analyzer: LedgerCheck},
		{Analyzer: RetryCtx, Scope: pkgSet(
			"repro/internal/fault",
			"repro/internal/device",
			"repro/internal/jobs",
			"repro/internal/kvcache",
			"repro/internal/server",
		)},
	}
}

// Analyzers returns every analyzer in the suite, unscoped — the registry
// linttest and relm-vet -only resolve names against.
func Analyzers() []*Analyzer {
	var out []*Analyzer
	for _, s := range Suite() {
		out = append(out, s.Analyzer)
	}
	return out
}

// SkipPackage excludes packages the suite must not self-apply to: the
// analyzer framework and its fixtures (which contain deliberate violations).
func SkipPackage(pkgPath string) bool {
	return pkgPath == "repro/internal/lint" ||
		strings.HasPrefix(pkgPath, "repro/internal/lint/")
}
