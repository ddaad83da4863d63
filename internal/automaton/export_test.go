package automaton

// DeterminizeRef and EqualDFA lend the string-keyed reference subset
// construction and the structural comparison to this directory's external
// tests, which import packages that import this one.
func DeterminizeRef(n *NFA) *DFA { return n.determinizeRef() }

var EqualDFA = equalDFA
