package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if got := tr.NewTrace(); got != nil {
		t.Fatalf("nil tracer NewTrace = %v, want nil", got)
	}
	tr.SetIDPrefix("x")
	if c := tr.Counts(); c != (Counts{}) {
		t.Fatalf("nil tracer Counts = %+v", c)
	}
	if tr.Recent(5) != nil || tr.Get("q-1") != nil || tr.StageTotals() != nil || tr.Histograms() != nil {
		t.Fatal("nil tracer accessors must return zero values")
	}

	var tc *Trace
	if tc.ID() != "" {
		t.Fatal("nil trace ID must be empty")
	}
	id := tc.Start(RootID, "round")
	if id != 0 {
		t.Fatalf("nil trace Start = %d, want 0", id)
	}
	tc.Annotate(id, "k", "v")
	tc.AddCount(RootID, "n", 1)
	tc.SetVDev(id, 0, time.Millisecond)
	tc.End(id)
	if tc.Finish() != nil {
		t.Fatal("nil trace Finish must return nil")
	}
}

func TestNilTraceZeroAlloc(t *testing.T) {
	var tc *Trace
	allocs := testing.AllocsPerRun(100, func() {
		id := tc.Start(RootID, "device.forward")
		tc.Annotate(id, "rows", "4")
		tc.AddCount(RootID, "resident_rows", 4)
		tc.SetVDev(id, 0, time.Millisecond)
		tc.End(id)
		tc.Finish()
	})
	if allocs != 0 {
		t.Fatalf("nil trace span lifecycle allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestAddCountKeepsOneRunningAttribute: a tally made of many events is one
// attribute holding their sum, not one attribute per event.
func TestAddCountKeepsOneRunningAttribute(t *testing.T) {
	tc := New(1, 4).NewTrace()
	sp := tc.Start(RootID, "round")
	tc.Annotate(sp, "nodes", "12")
	for _, n := range []int{3, 5, 1} {
		tc.AddCount(sp, "resident_rows", n)
	}
	tc.AddCount(0, "resident_rows", 7) // "no span": dropped
	tc.End(sp)
	got := tc.Finish().Find("round")[0]
	if len(got.Attrs) != 2 || got.Attr("nodes") != "12" || got.Attr("resident_rows") != "9" {
		t.Fatalf("attrs = %+v, want nodes=12 and one resident_rows=9", got.Attrs)
	}
}

func TestSamplingDisabledReturnsNil(t *testing.T) {
	if tr := New(-1, 0); tr != nil {
		t.Fatalf("New(-1) = %v, want nil (disabled)", tr)
	}
}

func TestSamplingDeterministic(t *testing.T) {
	// rate 0 defaults to 1.0: every query sampled.
	tr := New(0, 8)
	for i := 0; i < 5; i++ {
		if tr.NewTrace() == nil {
			t.Fatalf("query %d not sampled at rate 1.0", i)
		}
	}

	// Fractional rates sample a deterministic pattern: at 0.25 every 4th
	// query, independent of timing.
	pattern := func() []bool {
		tr := New(0.25, 8)
		var out []bool
		for i := 0; i < 12; i++ {
			out = append(out, tr.NewTrace() != nil)
		}
		return out
	}
	a, b := pattern(), pattern()
	hits := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sampling pattern diverged at query %d: %v vs %v", i, a, b)
		}
		if a[i] {
			hits++
		}
	}
	if hits != 3 {
		t.Fatalf("rate 0.25 over 12 queries sampled %d, want 3", hits)
	}
}

func TestSpanTreeAndRing(t *testing.T) {
	tr := New(1, 2)
	tr.SetIDPrefix("m")

	tc := tr.NewTrace()
	if tc.ID() != "m-1" {
		t.Fatalf("trace id = %q, want m-1", tc.ID())
	}
	round := tc.Start(RootID, "round")
	dev := tc.Start(round, "device.forward")
	tc.SetVDev(dev, 10*time.Microsecond, 250*time.Microsecond)
	tc.Annotate(dev, "batch", "3")
	tc.End(dev)
	tc.End(round)
	d := tc.Finish()
	if d2 := tc.Finish(); d2 != d {
		t.Fatal("Finish must be idempotent")
	}

	if len(d.Spans) != 3 {
		t.Fatalf("span count = %d, want 3", len(d.Spans))
	}
	if r := d.Root(); r == nil || r.Name != "query" || r.ID != RootID || r.Parent != 0 {
		t.Fatalf("bad root span: %+v", d.Root())
	}
	devs := d.Find("device.forward")
	if len(devs) != 1 || devs[0].Parent != round {
		t.Fatalf("device span lookup: %+v", devs)
	}
	if got := devs[0].VDev(); got != 240*time.Microsecond {
		t.Fatalf("vdev duration = %v, want 240µs", got)
	}
	if devs[0].Attr("batch") != "3" {
		t.Fatalf("attr batch = %q", devs[0].Attr("batch"))
	}

	// Ring of 2: a third trace evicts the first.
	tr.NewTrace().Finish()
	tr.NewTrace().Finish()
	if tr.Get("m-1") != nil {
		t.Fatal("m-1 should have been evicted from a 2-entry ring")
	}
	if tr.Get("m-3") == nil {
		t.Fatal("m-3 missing from ring")
	}
	recent := tr.Recent(0)
	if len(recent) != 2 || recent[0].ID != "m-3" || recent[1].ID != "m-2" {
		ids := make([]string, len(recent))
		for i, d := range recent {
			ids[i] = d.ID
		}
		t.Fatalf("Recent order = %v, want [m-3 m-2]", ids)
	}
	c := tr.Counts()
	if c.Sampled != 3 || c.Stored != 3 || c.Retained != 2 {
		t.Fatalf("counts = %+v", c)
	}
}

func TestSpanCap(t *testing.T) {
	tr := New(1, 1)
	tc := tr.NewTrace()
	for i := 0; i < maxSpans+10; i++ {
		tc.End(tc.Start(RootID, "round"))
	}
	d := tc.Finish()
	if len(d.Spans) != maxSpans {
		t.Fatalf("spans = %d, want cap %d", len(d.Spans), maxSpans)
	}
	// The root occupies a slot, so 11 starts (10 overflow + 1 displaced)
	// were dropped.
	if d.DroppedSpans != 11 {
		t.Fatalf("dropped = %d, want 11", d.DroppedSpans)
	}
}

func TestNDJSONExport(t *testing.T) {
	tr := New(1, 1)
	tc := tr.NewTrace()
	tc.End(tc.Start(RootID, "plan.compile"))
	d := tc.Finish()

	var buf bytes.Buffer
	if err := d.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // header + 2 spans
		t.Fatalf("NDJSON lines = %d, want 3:\n%s", len(lines), buf.String())
	}
	var hdr struct {
		ID    string `json:"id"`
		Spans int    `json:"spans"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.ID != d.ID || hdr.Spans != 2 {
		t.Fatalf("header = %+v", hdr)
	}
	var sp Span
	if err := json.Unmarshal([]byte(lines[1]), &sp); err != nil {
		t.Fatal(err)
	}
	if sp.Name != "query" || sp.ID != RootID {
		t.Fatalf("first span = %+v", sp)
	}
}

func TestHistogramsAndStageTotals(t *testing.T) {
	tr := New(1, 1)
	tc := tr.NewTrace()
	for i, d := range []time.Duration{40 * time.Microsecond, 300 * time.Microsecond, 2 * time.Second} {
		id := tc.Start(RootID, "device.forward")
		tc.SetVDev(id, 0, d)
		tc.End(id)
		_ = i
	}
	tc.Finish()

	snaps := tr.Histograms()
	var fwd *HistSnapshot
	for i := range snaps {
		if snaps[i].Stage == "device.forward" {
			fwd = &snaps[i]
		}
	}
	if fwd == nil {
		t.Fatalf("no device.forward histogram in %+v", snaps)
	}
	if fwd.Count != 3 {
		t.Fatalf("count = %d, want 3", fwd.Count)
	}
	if fwd.Cumulative[0] != 1 { // 40µs <= 50µs bound
		t.Fatalf("le=50 cumulative = %d, want 1", fwd.Cumulative[0])
	}
	last := fwd.Cumulative[len(fwd.Cumulative)-1]
	if last != 3 { // +Inf holds everything
		t.Fatalf("+Inf cumulative = %d, want 3", last)
	}
	if fwd.SumUS != 40+300+2000000 {
		t.Fatalf("sum = %dµs", fwd.SumUS)
	}

	totals := tr.StageTotals()
	st := totals["device.forward"]
	if st.Count != 3 || st.DurUS != 2000340 {
		t.Fatalf("stage totals = %+v", st)
	}
	// "query" root also observed (wall-clock fallback).
	if totals["query"].Count != 1 {
		t.Fatalf("query stage totals = %+v", totals["query"])
	}
}

func TestPromExposition(t *testing.T) {
	tr := New(1, 1)
	tc := tr.NewTrace()
	id := tc.Start(RootID, "kv.acquire")
	tc.SetVDev(id, 0, 75*time.Microsecond)
	tc.End(id)
	tc.Finish()

	var buf bytes.Buffer
	if err := tr.WritePromHistograms(&buf, "relm_stage_duration_us", `model="large"`); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`relm_stage_duration_us_bucket{model="large",stage="kv.acquire",le="50"} 0`,
		`relm_stage_duration_us_bucket{model="large",stage="kv.acquire",le="100"} 1`,
		`relm_stage_duration_us_bucket{model="large",stage="kv.acquire",le="+Inf"} 1`,
		`relm_stage_duration_us_sum{model="large",stage="kv.acquire"} 75`,
		`relm_stage_duration_us_count{model="large",stage="kv.acquire"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Every bucket line must be cumulative (non-decreasing).
	var prev int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, `stage="kv.acquire",le=`) {
			continue
		}
		var v int64
		if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &v); err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("bucket counts not cumulative:\n%s", out)
		}
		prev = v
	}
}

func TestPromEscape(t *testing.T) {
	got := PromEscape("a\"b\\c\nd")
	want := `a\"b\\c\nd`
	if got != want {
		t.Fatalf("PromEscape = %q, want %q", got, want)
	}
}

func TestChromeExport(t *testing.T) {
	tr := New(1, 4)
	tc := tr.NewTrace()
	dev := tc.Start(RootID, "device.forward")
	tc.SetVDev(dev, 100*time.Microsecond, 400*time.Microsecond)
	tc.Annotate(dev, "batch", "7")
	tc.End(dev)
	d1 := tc.Finish()
	d2 := tr.NewTrace().Finish()

	var buf bytes.Buffer
	if err := WriteChrome(&buf, []*Data{d2, d1, nil}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, buf.String())
	}
	var meta, complete int
	var sawDev bool
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
			if ev.Name == "device.forward" {
				sawDev = true
				if ev.Args["batch"] != "7" {
					t.Fatalf("device event args = %v", ev.Args)
				}
				if ev.Args["vdev_us"] != float64(300) {
					t.Fatalf("vdev_us = %v, want 300", ev.Args["vdev_us"])
				}
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if meta != 2 { // one thread_name per trace
		t.Fatalf("metadata events = %d, want 2", meta)
	}
	if complete != 3 { // two roots + one device span
		t.Fatalf("complete events = %d, want 3", complete)
	}
	if !sawDev {
		t.Fatal("device.forward event missing")
	}
}

// TestRingConcurrent exercises the trace ring and histograms from 32
// goroutines under -race: concurrent NewTrace/span-append/Finish/read.
func TestRingConcurrent(t *testing.T) {
	tr := New(1, 16)
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tc := tr.NewTrace()
			for i := 0; i < 8; i++ {
				round := tc.Start(RootID, "round")
				dev := tc.Start(round, "device.forward")
				tc.SetVDev(dev, 0, time.Duration(i)*time.Microsecond)
				tc.Annotate(dev, "i", "x")
				tc.End(dev)
				tc.End(round)
			}
			tc.Finish()
			tr.Recent(4)
			tr.Histograms()
			tr.StageTotals()
			if d := tr.Get(tc.ID()); d != nil {
				d.Summarize()
			}
		}()
	}
	wg.Wait()
	c := tr.Counts()
	if c.Sampled != 32 || c.Stored != 32 || c.Retained != 16 {
		t.Fatalf("counts after concurrent run = %+v", c)
	}
	if got := tr.StageTotals()["round"].Count; got != 32*8 {
		t.Fatalf("round stage count = %d, want 256", got)
	}
}
