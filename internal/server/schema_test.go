package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/jobs"
)

// newSchemaServer serves every stats block at once: a fused model (batcher
// block), a plain one beside it, and the jobs subsystem mounted. One query
// on the fused model makes the trace block and the stage histograms appear.
func newSchemaServer(tb testing.TB) *httptest.Server {
	tb.Helper()
	s, ts := newFusedTestServer(tb, Config{})
	s.AddModel("plain", freshModel(tb))
	mgr, err := jobs.NewManager(jobs.Config{Dir: tb.TempDir(), Env: jobsEnv()})
	if err != nil {
		tb.Fatal(err)
	}
	s.EnableJobs(mgr)
	runQueryToEnd(tb, ts, `{"model":"test","pattern":" ((cat)|(dog))","prefix":"The","max_matches":5}`)
	return ts
}

func scrapeMetrics(tb testing.TB, ts *httptest.Server) []string {
	tb.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if sc.Text() != "" {
			lines = append(lines, sc.Text())
		}
	}
	return lines
}

// keyPaths lists every object key path in a decoded JSON value, arrays
// written as "[]" and their elements' paths merged.
func keyPaths(prefix string, v interface{}, out map[string]bool) {
	switch v := v.(type) {
	case map[string]interface{}:
		for k, sub := range v {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			out[p] = true
			keyPaths(p, sub, out)
		}
	case []interface{}:
		for _, sub := range v {
			keyPaths(prefix+"[]", sub, out)
		}
	}
}

// TestStatsSchemaPinned pins the served schema: every # HELP and # TYPE
// line of /metrics and every /v1/stats key path outside queries[], against
// testdata/stats_schema.golden. Renaming a family, retyping it, rewording
// its HELP or renaming a JSON key fails here.
func TestStatsSchemaPinned(t *testing.T) {
	ts := newSchemaServer(t)
	got := map[string]bool{}
	for _, line := range scrapeMetrics(t, ts) {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			got[line] = true
		}
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	delete(stats, "queries")
	paths := map[string]bool{}
	keyPaths("", stats, paths)
	for p := range paths {
		got["stats "+p] = true
	}

	raw, err := os.ReadFile("testdata/stats_schema.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		want[line] = true
	}
	var missing, extra []string
	for line := range want {
		if !got[line] {
			missing = append(missing, line)
		}
	}
	for line := range got {
		if !want[line] {
			extra = append(extra, line)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	for _, line := range missing {
		t.Errorf("missing: %s", line)
	}
	for _, line := range extra {
		t.Errorf("unexpected: %s", line)
	}
}

// TestMetricsFamiliesContiguous scrapes a two-model server and holds every
// family to the text format's grouping rule: one # HELP, one # TYPE, then
// all of its samples in one unbroken run — never a second model's samples
// of a family after another family has started.
func TestMetricsFamiliesContiguous(t *testing.T) {
	ts := newSchemaServer(t)
	lines := scrapeMetrics(t, ts)
	closed := map[string]bool{}
	current := ""
	for i := 0; i < len(lines); i++ {
		rest, ok := strings.CutPrefix(lines[i], "# HELP ")
		if !ok {
			t.Fatalf("line %d: %q outside a family block", i+1, lines[i])
		}
		family, _, _ := strings.Cut(rest, " ")
		if closed[family] || family == current {
			t.Errorf("family %s starts a second block at line %d", family, i+1)
		}
		if current != "" {
			closed[current] = true
		}
		current = family
		if i+1 >= len(lines) || !strings.HasPrefix(lines[i+1], "# TYPE "+family+" ") {
			t.Fatalf("line %d: family %s's # HELP is not followed by its # TYPE", i+1, family)
		}
		i++
		samples := 0
		for i+1 < len(lines) && !strings.HasPrefix(lines[i+1], "#") {
			i++
			name := lines[i][:strings.IndexAny(lines[i], "{ ")]
			if name != family && !histogramSeries(name, family) {
				t.Errorf("line %d: sample %q inside family %s's block", i+1, lines[i], family)
			}
			samples++
		}
		if samples == 0 {
			t.Errorf("family %s has no samples", family)
		}
	}
	if len(closed) < 50 {
		t.Errorf("only %d families scraped", len(closed)+1)
	}
}

// histogramSeries reports whether name is one of a histogram family's
// _bucket, _sum or _count series.
func histogramSeries(name, family string) bool {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if name == family+suffix {
			return true
		}
	}
	return false
}

var familyRe = regexp.MustCompile(`^relm_[a-z0-9_]+$`)

// TestSnapshotFieldsTagged walks every type reachable from StatsResponse and
// holds each numeric field, time.Duration included, to the counter schema:
// it carries `metric:"<family>,<counter|gauge>,<HELP>"` or an explicit
// `metric:"-"`, and no family is tagged twice with a different TYPE or HELP.
// queries[] is the per-query listing, which /metrics does not render; it is
// not walked.
func TestSnapshotFieldsTagged(t *testing.T) {
	families := map[string]string{} // family -> "TYPE HELP"
	seen := map[reflect.Type]bool{}
	var walk func(rt reflect.Type)
	walk = func(rt reflect.Type) {
		for rt.Kind() == reflect.Pointer || rt.Kind() == reflect.Slice {
			rt = rt.Elem()
		}
		if rt.Kind() != reflect.Struct || seen[rt] {
			return
		}
		seen[rt] = true
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			tag, where := f.Tag.Get("metric"), rt.String()+"."+f.Name
			k := f.Type.Kind()
			switch {
			case k >= reflect.Int && k <= reflect.Float64 && tag == "":
				t.Errorf("%s: numeric field without a metric tag", where)
			case tag == "-":
			case tag == "":
				if rt != reflect.TypeOf(StatsResponse{}) || f.Name != "Queries" {
					walk(f.Type)
				}
			case (k < reflect.Int || k > reflect.Int64) && k != reflect.Float32 && k != reflect.Float64:
				t.Errorf("%s: metric tag on a %s field; /metrics renders signed integers and floats", where, k)
			default:
				parts := strings.SplitN(tag, ",", 3)
				if len(parts) != 3 || !familyRe.MatchString(parts[0]) ||
					(parts[1] != "counter" && parts[1] != "gauge") || parts[2] == "" {
					t.Errorf("%s: metric tag %q, want \"<family>,<counter|gauge>,<HELP>\" or \"-\"", where, tag)
					continue
				}
				if prev, ok := families[parts[0]]; ok && prev != parts[1]+" "+parts[2] {
					t.Errorf("%s: family %s tagged twice: %q and %q", where, parts[0], prev, parts[1]+" "+parts[2])
				}
				families[parts[0]] = parts[1] + " " + parts[2]
			}
		}
	}
	walk(reflect.TypeOf(StatsResponse{}))
	if len(families) < 50 {
		t.Errorf("only %d tagged families reachable from StatsResponse", len(families))
	}
}
