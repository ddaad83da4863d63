package relm

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/trace"
)

// MassEstimate reports certified bounds on the probability that a complete
// model generation lies in the query's language — the quantitative form of
// "measure LLM behavior over sets too large to enumerate" (§1). See
// engine.Mass for the exact semantics.
type MassEstimate struct {
	// Lower and Upper bound the mass; the true value lies between them.
	Lower, Upper float64
	// Matches counts complete strings resolved into Lower.
	Matches int64
	// Expanded counts search-node expansions performed.
	Expanded int64
	// Converged reports the gap closed to within the tolerance.
	Converged bool
}

// Gap is the remaining uncertainty.
func (e *MassEstimate) Gap() float64 { return e.Upper - e.Lower }

// String renders the estimate as an interval.
func (e *MassEstimate) String() string {
	mark := ""
	if !e.Converged {
		mark = " (budget exhausted)"
	}
	return fmt.Sprintf("mass ∈ [%.6g, %.6g], %d matches resolved%s", e.Lower, e.Upper, e.Matches, mark)
}

// MassOptions bounds the mass computation.
type MassOptions struct {
	// Tolerance stops once Upper-Lower <= Tolerance (default 1e-3).
	Tolerance float64
	// MaxNodes caps node expansions (default 1<<17).
	MaxNodes int
}

// Mass computes certified lower/upper bounds on the probability mass of the
// query's pattern language, conditioned on the (uniform mixture of the)
// prefix language. Unlike Search, which streams individual matches, Mass
// answers the aggregate question "how likely is the model to emit any
// string in L?" — e.g. the total probability of emitting a phone number, a
// memorized URL, or an insult, without enumerating the set.
//
// Decision rules (TopK/TopP/Temperature) act as hard filters, matching the
// §2.4 language semantics. The match must be a complete generation (EOS
// after the pattern), so RequireEOS is implied.
func Mass(m *Model, q SearchQuery, opts MassOptions) (*MassEstimate, error) {
	if m == nil || m.Tok == nil || m.Dev == nil {
		return nil, errors.New("relm: model is incomplete")
	}
	applyDefaults(&q)
	tr := m.tracer.NewTrace()
	defer tr.Finish() // Mass is synchronous: the trace publishes on return
	tr.Annotate(trace.RootID, "pattern", q.Query.Pattern)
	compSpan := tr.Start(trace.RootID, "plan.compile")
	comp, hit, err := compileCached(m, &q)
	var prefix *prefixLanguage
	if err == nil {
		prefix, err = compilePrefix(m, &q)
	}
	var prefixes [][]model.Token
	if err == nil && prefix != nil {
		prefixes, err = prefix.Encode()
	}
	if err != nil {
		return nil, err
	}
	tr.Annotate(compSpan, "cache_hit", strconv.FormatBool(hit))
	tr.End(compSpan)
	eq := &engine.Query{
		Rule:        buildRule(q),
		MaxTokens:   q.MaxTokens,
		BatchExpand: q.BatchExpand,
		Parallelism: q.Parallelism,
		Context:     q.Context,
		Incremental: q.Incremental && m.kv != nil,
		KV:          m.kv,
		Pattern:     comp.token,
		Filter:      comp.filter,
		Prefixes:    prefixes,
		Trace:       tr,
	}
	res, err := engine.Mass(m.Dev, eq, engine.MassOptions{Tolerance: opts.Tolerance, MaxNodes: opts.MaxNodes})
	if err != nil {
		return nil, err
	}
	return &MassEstimate{
		Lower:     res.Lower,
		Upper:     res.Upper,
		Matches:   res.Matches,
		Expanded:  res.Expanded,
		Converged: res.Converged,
	}, nil
}
