package relm

import "repro/internal/engine"

// MassEstimate reports certified bounds on the probability that a complete
// model generation lies in the query's language (engine.Mass).
type MassEstimate = engine.MassResult

// MassOptions bounds the mass computation; the query's MaxNodes caps its
// node expansions (default 1<<17).
type MassOptions = engine.MassOptions

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
	r, err := lower(m, &q, massRun)
	if err != nil {
		return nil, err
	}
	defer r.eq.Trace.Finish() // Mass is synchronous: the trace publishes on return
	return engine.Mass(m.Dev, &r.eq, opts)
}
