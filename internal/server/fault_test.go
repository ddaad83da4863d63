package server

import (
	"testing"

	"repro/internal/fault"
)

// TestSearchDeviceFaultEndsStreamWithError: a device fault — in an expansion
// round (device.forward) or in the prefix scoring Search runs before the
// first Next (device.scoreall) — ends the query's stream with a done event
// of status error carrying the fault's text, is counted once under
// by_status, and leaves the server answering the next search.
func TestSearchDeviceFaultEndsStreamWithError(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"pattern":" ((cat)|(dog))","prefix":"The","max_matches":5}`
	for i, point := range []string{fault.DeviceForward, fault.DeviceScoreAll} {
		fault.Enable(fault.New(1).Set(point, fault.Spec{FailN: 1}))
		t.Cleanup(fault.Disable)
		_, done := runQueryToEnd(t, ts, body)
		fault.Disable()
		want := (&fault.Fault{Point: point, Call: 1}).Error()
		if done == nil || done.Status != statusError || done.Error != want {
			t.Fatalf("%s: stream ended with %+v, want a done event of status %q carrying %q", point, done, statusError, want)
		}
		if n := getStats(t, ts).ByStatus[statusError]; n != int64(i+1) {
			t.Errorf("%s: by_status error = %d, want %d", point, n, i+1)
		}
		if matches, done := runQueryToEnd(t, ts, body); done == nil || done.Status == statusError || len(matches) == 0 {
			t.Errorf("%s: search after the fault ended with %+v and %d matches", point, done, len(matches))
		}
	}
}
