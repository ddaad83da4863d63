package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/model"
	"repro/relm"
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

// poisonedLM panics on any context longer than depth tokens: a model bug
// that strikes mid-query. Its ScoreBatch goes through NextLogProbs.
type poisonedLM struct {
	model.LanguageModel
	depth int
}

func (p poisonedLM) NextLogProbs(ctx []model.Token) []float64 {
	if len(ctx) > p.depth {
		panic("poison context")
	}
	return p.LanguageModel.NextLogProbs(ctx)
}

func (p poisonedLM) ScoreBatch(ctxs [][]model.Token) [][]float64 { return model.ScoreSerial(p, ctxs) }

// TestModelPanicEndsStreamWithError: a model that panics mid-query — in the
// sampler's attempts, off the handler's goroutine — ends that query's stream
// with a done event of status error naming the panic, on a fused and an
// unfused model. The server stays healthy and the query is retired, not left
// running.
func TestModelPanicEndsStreamWithError(t *testing.T) {
	tok, lm := trainOnce()
	for _, fused := range []bool{false, true} {
		s := New(Config{})
		m := relm.NewModel(poisonedLM{lm, len(tok.Encode("The")) + 1}, tok, relm.ModelOptions{ContinuousBatching: fused})
		t.Cleanup(m.Close)
		s.AddModel("test", m)
		ts := httptest.NewServer(s)
		t.Cleanup(ts.Close)

		_, done := runQueryToEnd(t, ts, `{"pattern":" ((cat)|(dog))","prefix":"The","strategy":"random","max_matches":20}`)
		if done == nil || done.Status != statusError ||
			!strings.HasPrefix(done.Error, "device: model panicked:") || !strings.Contains(done.Error, "poison context") {
			t.Fatalf("fused=%v: stream ended with %+v, want a done event of status %q naming the model's panic", fused, done, statusError)
		}
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("fused=%v: /healthz %d after the model panicked, want 200", fused, resp.StatusCode)
		}
		st := getStats(t, ts)
		for _, q := range st.Queries {
			if q.Status == statusRunning {
				t.Errorf("fused=%v: query %d still %s after its stream ended", fused, q.ID, q.Status)
			}
		}
		if st.Active != 0 || st.ByStatus[statusError] != 1 {
			t.Errorf("fused=%v: active %d, by_status error %d; want 0 and 1", fused, st.Active, st.ByStatus[statusError])
		}
	}
}

// panicWriter is a response writer whose writes panic: a stand-in for any
// bug that unwinds the search handler mid-stream.
type panicWriter struct{ http.ResponseWriter }

func (panicWriter) Write([]byte) (int, error) { panic("write bug") }

// TestSearchHandlerPanicRetiresQuery: however the search handler exits — a
// panic mid-stream included — its query leaves the running set and is
// counted as an error.
func TestSearchHandlerPanicRetiresQuery(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := httptest.NewRequest(http.MethodPost, "/v1/search",
		strings.NewReader(`{"pattern":" ((cat)|(dog))","prefix":"The","max_matches":5}`))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the handler wrote its stream without panicking")
			}
		}()
		s.ServeHTTP(panicWriter{httptest.NewRecorder()}, req)
	}()
	st := getStats(t, ts)
	if st.Active != 0 || st.ByStatus[statusError] != 1 {
		t.Fatalf("active %d, by_status error %d after the handler panicked; want 0 and 1", st.Active, st.ByStatus[statusError])
	}
	if q := st.Queries[0]; q.Status != statusError {
		t.Errorf("query %d is %s, want %s", q.ID, q.Status, statusError)
	}
}
