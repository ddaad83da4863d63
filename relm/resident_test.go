package relm

import (
	"fmt"
	"testing"
	"time"
)

// TestWarmCacheStreamsIdentical: the device asks the logit cache before it
// dispatches (DESIGN.md decisions 4 and 6), so a query run a second time on
// the same model is answered almost entirely without the device. Its result
// stream must not be able to tell: for shortest-path, beam, sampling and
// Mass, fused and unfused, the warm run equals the cold run byte for byte
// while charging the device a fraction of what the cold run did.
func TestWarmCacheStreamsIdentical(t *testing.T) {
	lm, tok := testNGram()
	qs := QueryString{Pattern: " ([0-9]{3}) ([0-9]{3}) ([0-9]{4})", Prefix: "My phone number is"}
	cases := []fusionCase{
		{name: "shortest", q: SearchQuery{Query: qs, Strategy: ShortestPath, RequireEOS: true, MaxTokens: 24}, take: 3},
		{name: "beam", q: SearchQuery{Query: qs, Strategy: BeamSearch, BeamWidth: 4, RequireEOS: true, MaxTokens: 24}, take: 2},
		{name: "sample", q: SearchQuery{Query: qs, Strategy: RandomSampling, Seed: 42, RequireEOS: true, MaxTokens: 24}, take: 3},
	}
	for _, fused := range []bool{false, true} {
		t.Run(fmt.Sprintf("fused=%v", fused), func(t *testing.T) {
			for _, c := range cases {
				m := NewModel(lm, tok, ModelOptions{ContinuousBatching: fused, FusionWindow: 200 * time.Microsecond})
				defer m.Close()
				cold := runCase(t, m, c)
				coldBusy := m.Dev.Stats().Busy
				warm := runCase(t, m, c)
				warmBusy := m.Dev.Stats().Busy - coldBusy
				if len(cold) == 0 || fmt.Sprint(warm) != fmt.Sprint(cold) {
					t.Errorf("%s: warm stream differs from cold\nwarm: %v\ncold: %v", c.name, warm, cold)
				}
				// Close stops a traversal wherever its read-ahead got to, so the
				// warm run may step a little past the cold run's frontier.
				if warmBusy > coldBusy/4 {
					t.Errorf("%s: warm run charged the device %v of the cold run's %v", c.name, warmBusy, coldBusy)
				}
			}

			m := NewModel(lm, tok, ModelOptions{ContinuousBatching: fused})
			defer m.Close()
			q := SearchQuery{Query: qs, RequireEOS: true, MaxTokens: 24}
			opts := MassOptions{Tolerance: 0.05, MaxNodes: 200}
			cold, err := Mass(m, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			coldBusy := m.Dev.Stats().Busy
			warm, err := Mass(m, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if *warm != *cold {
				t.Errorf("mass: warm estimate %+v differs from cold %+v", warm, cold)
			}
			// Mass is synchronous and deterministic: the warm run asks for
			// exactly the rows the cold run computed.
			if busy := m.Dev.Stats().Busy; busy != coldBusy {
				t.Errorf("mass: warm run charged the device %v", busy-coldBusy)
			}
		})
	}
}
