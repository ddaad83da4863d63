package server

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/relm"
)

// FuzzSearchRequest feeds arbitrary POST /v1/search bodies to parseRequest.
// It must never panic, and a request it accepts must hold the documented
// bounds: a pattern, a known strategy and tokenization, temperature >= 0,
// topp in [0, 1], non-negative counts (parallelism, which nothing reads, may
// be anything), edits at most the server's MaxEdits, and the one registered model. An accepted request,
// re-encoded, must parse back to itself. The seed corpus
// (testdata/fuzz/FuzzSearchRequest) holds the request shapes the tests and
// CI send plus one body per rejection.
func FuzzSearchRequest(f *testing.F) {
	s := New(Config{})
	// parseRequest only resolves the name, so the registry entry needs no
	// trained model behind it.
	s.models["test"] = new(relm.Model)
	strategies := map[string]bool{"": true, "shortest": true, "beam": true, "random": true}
	tokenizations := map[string]bool{"": true, "canonical": true, "all": true}
	parse := func(body string) (*SearchRequest, *relm.Model, string, error) {
		r := httptest.NewRequest("POST", "/v1/search", strings.NewReader(body))
		return s.parseRequest(httptest.NewRecorder(), r)
	}
	f.Fuzz(func(t *testing.T, body string) {
		req, m, name, err := parse(body)
		if err != nil {
			if req != nil || m != nil {
				t.Fatalf("%q rejected (%v) but returned a request", body, err)
			}
			return
		}
		if m != s.models["test"] || name != "test" {
			t.Fatalf("%q resolved model %q", body, name)
		}
		switch {
		case req.Pattern == "":
			t.Fatalf("%q accepted without a pattern", body)
		case !strategies[req.Strategy]:
			t.Fatalf("%q accepted strategy %q", body, req.Strategy)
		case !tokenizations[req.Tokenization]:
			t.Fatalf("%q accepted tokenization %q", body, req.Tokenization)
		case !(req.Temperature >= 0):
			t.Fatalf("%q accepted temperature %v", body, req.Temperature)
		case !(req.TopP >= 0 && req.TopP <= 1):
			t.Fatalf("%q accepted topp %v", body, req.TopP)
		case req.TopK < 0 || req.MaxMatches < 0 || req.DeadlineMS < 0 || req.BeamWidth < 0 ||
			req.Batch < 0:
			t.Fatalf("%q accepted a negative count: %+v", body, req)
		case req.Edits < 0 || req.Edits > s.cfg.MaxEdits:
			t.Fatalf("%q accepted edits %d (max %d)", body, req.Edits, s.cfg.MaxEdits)
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("%q: accepted request does not encode: %v", body, err)
		}
		req2, _, _, err := parse(string(again))
		if err != nil || !reflect.DeepEqual(req, req2) {
			t.Fatalf("%q: re-encoded as %s, which parses to %+v (err %v), want %+v", body, again, req2, err, req)
		}
	})
}
