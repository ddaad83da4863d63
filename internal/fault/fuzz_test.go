package fault

import (
	"strings"
	"testing"
)

// FuzzParseScenario feeds arbitrary chaos-flag strings to ParseScenario. It
// must never panic, and a scenario it accepts must arm only specs a point
// can honour: both probabilities in [0, 1], counts and latencies
// non-negative. The seed corpus (testdata/fuzz/FuzzParseScenario) holds every
// grammar example and the scenarios CI runs.
func FuzzParseScenario(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		in, err := ParseScenario(s, 1)
		if err != nil {
			return
		}
		for name, p := range in.points {
			sp := p.spec
			if !(sp.Prob >= 0 && sp.Prob <= 1) || !(sp.LatProb >= 0 && sp.LatProb <= 1) {
				t.Fatalf("%q armed %s with Prob %v, LatProb %v", s, name, sp.Prob, sp.LatProb)
			}
			if sp.FailN < 0 || sp.Latency < 0 {
				t.Fatalf("%q armed %s with FailN %d, Latency %v", s, name, sp.FailN, sp.Latency)
			}
			if !strings.Contains(s, name) {
				t.Fatalf("%q armed %s, which it does not name", s, name)
			}
		}
	})
}
