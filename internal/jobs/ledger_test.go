package jobs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// mkLedger writes a finished ledger of n items on a fixed clock, so the file
// is the same bytes on every run.
func mkLedger(t testing.TB, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	l, err := CreateLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	l.now = func() time.Time { return time.UnixMilli(1_700_000_000_000) }
	if _, err := l.Append(kindHeader, headerData{JobID: "job-0001", Suite: "urlmatch"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := l.Append(kindItem, itemData{Shard: i / 2, Index: i, Result: ItemResult{
			ID: strings.Repeat("x", 8) + string(rune('a'+i)), OK: i%2 == 0, Score: float64(i) * 0.5,
		}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Append(kindComplete, completeData{ItemsDone: n}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLedgerChainRoundTrip(t *testing.T) {
	path := mkLedger(t, 6)
	n, err := VerifyFile(path)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if n != 8 { // header + 6 items + complete
		t.Fatalf("verified %d records, want 8", n)
	}
	l, recs, err := OpenLedger(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	if len(recs) != 8 {
		t.Fatalf("replayed %d records, want 8", len(recs))
	}
	// The chain continues from the replayed tail: a post-reopen append must
	// still verify.
	if _, err := l.Append(kindResume, resumeData{Attempt: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := VerifyFile(path); err != nil || n != 9 {
		t.Fatalf("verify after append: n=%d err=%v", n, err)
	}
}

// TestLedgerTamperReportsFirstBrokenLink is the satellite tamper test: flip
// one byte mid-file and verify names that record, not a later one.
func TestLedgerTamperReportsFirstBrokenLink(t *testing.T) {
	path := mkLedger(t, 6)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(raw, []byte("\n"))
	// Flip a payload byte inside line 4 (header is line 1): one of the
	// "xxxxxxxx" filler characters, so the line stays valid JSON and the
	// breakage must be caught by the digest, not the parser.
	target := 3 // 0-based index of line 4
	idx := bytes.Index(lines[target], []byte("xxxxxxxx"))
	if idx < 0 {
		t.Fatalf("filler not found in %s", lines[target])
	}
	lines[target][idx] = 'y'
	if err := os.WriteFile(path, bytes.Join(lines, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = VerifyFile(path)
	var cerr *ChainError
	if !errors.As(err, &cerr) {
		t.Fatalf("want ChainError, got %v", err)
	}
	if cerr.Line != target+1 {
		t.Fatalf("first broken link reported at line %d, want %d (err: %v)", cerr.Line, target+1, cerr)
	}
	if !strings.Contains(cerr.Reason, "digest") {
		t.Fatalf("want a digest mismatch, got %q", cerr.Reason)
	}

	// A tampered ledger must refuse to reopen for resume, too.
	if _, _, err := OpenLedger(path); err == nil {
		t.Fatal("OpenLedger accepted a tampered ledger")
	}
}

func TestLedgerTornTailRepair(t *testing.T) {
	path := mkLedger(t, 4)
	// Simulate a crash mid-append: a trailing half-record without newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":99,"prev":"dead`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Strict verification reports the incomplete file...
	if _, err := VerifyFile(path); err == nil {
		t.Fatal("VerifyFile accepted a torn tail")
	}
	// ...while reopening for resume truncates it away and keeps the chain.
	l, recs, err := OpenLedger(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(recs) != 6 {
		t.Fatalf("replayed %d records, want 6", len(recs))
	}
	if _, err := l.Append(kindResume, resumeData{Attempt: 1}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := VerifyFile(path); err != nil {
		t.Fatalf("verify after repair: %v", err)
	}
}

func TestLedgerRejectsMidFileGarbage(t *testing.T) {
	path := mkLedger(t, 4)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(raw, []byte("\n"))
	lines[2] = []byte("not json at all")
	if err := os.WriteFile(path, bytes.Join(lines, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	// Mid-file garbage is damage, not a torn tail: both paths refuse.
	if _, _, err := OpenLedger(path); err == nil {
		t.Fatal("OpenLedger accepted mid-file garbage")
	}
	var cerr *ChainError
	if _, err := VerifyFile(path); !errors.As(err, &cerr) || cerr.Line != 3 {
		t.Fatalf("want ChainError at line 3, got %v", err)
	}
}

// TestLedgerDamagedFinalRecordRefused flips one byte of the last complete
// record so it no longer parses. Append writes a record and its newline
// together, so a newline-terminated line is no torn append: reopening must
// refuse the file and leave it as it is, not truncate a written record away.
func TestLedgerDamagedFinalRecordRefused(t *testing.T) {
	path := mkLedger(t, 4)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	last := bytes.LastIndexByte(raw[:len(raw)-1], '\n') + 1
	raw[last] ^= 1 // the record's opening brace
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var cerr *ChainError
	if _, _, err := OpenLedger(path); !errors.As(err, &cerr) || cerr.Line != 6 {
		t.Fatalf("OpenLedger: want ChainError at line 6, got %v", err)
	}
	if _, err := VerifyFile(path); !errors.As(err, &cerr) || cerr.Line != 6 {
		t.Fatalf("VerifyFile: want ChainError at line 6, got %v", err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, raw) {
		t.Fatalf("refused ledger was modified (%d -> %d bytes, err %v)", len(raw), len(after), err)
	}
}

// FuzzOpenLedger damages a valid ledger — cut bytes off its end, then XOR
// bytes at fuzzed positions (three bytes per flip: a big-endian position and
// the mask) — and reopens it. OpenLedger must refuse with a *ChainError, or
// return one record per complete line in a file that is, byte for byte, the
// original's first bytes and that VerifyFile accepts after the repair: never
// a silently accepted change or dropped record, never a panic.
func FuzzOpenLedger(f *testing.F) {
	raw, err := os.ReadFile(mkLedger(f, 4))
	if err != nil {
		f.Fatal(err)
	}
	want, _, err := replay(raw, false)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint16(0), []byte{})
	f.Fuzz(func(t *testing.T, cut uint16, flips []byte) {
		data := append([]byte(nil), raw[:len(raw)-int(cut)%(len(raw)+1)]...)
		for i := 0; i+2 < len(flips) && len(data) > 0; i += 3 {
			data[int(binary.BigEndian.Uint16(flips[i:]))%len(data)] ^= flips[i+2]
		}
		path := filepath.Join(t.TempDir(), "run.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs, err := OpenLedger(path)
		if err != nil {
			var cerr *ChainError
			if !errors.As(err, &cerr) {
				t.Fatalf("OpenLedger: %v, want a *ChainError", err)
			}
			return
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if lines := bytes.Count(data, []byte("\n")); len(recs) != lines || lines > len(want) {
			t.Fatalf("replayed %d records from %d complete lines (ledger of %d)", len(recs), lines, len(want))
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.HasPrefix(raw, after) {
			t.Fatalf("accepted %d bytes that are not the original's first bytes (err %v)", len(after), err)
		}
		if n, err := VerifyFile(path); err != nil || n != len(recs) {
			t.Fatalf("verify after repair: n=%d err=%v, want %d records", n, err, len(recs))
		}
	})
}

// TestReadRunLastTerminalRecordDecides walks a hand-built ledger through
// cancel -> resume -> crash -> cancel -> resume -> complete and reads it
// after every record: the last resume, cancel or complete record decides the
// flags, so a run resumed after a cancel and then killed is neither
// cancelled nor completed.
func TestReadRunLastTerminalRecordDecides(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	l, err := CreateLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(kindHeader, &headerData{JobID: "job-0001", Suite: "urlmatch", Items: 4, Shards: 2}); err != nil {
		t.Fatal(err)
	}
	item := func(i int) *itemData {
		return &itemData{Shard: i / 2, Index: i, Result: ItemResult{ID: "u" + string(rune('a'+i)), OK: i%2 == 0}}
	}
	steps := []struct {
		kind                 string
		payload              interface{}
		completed, cancelled bool
		resumes, results     int
	}{
		{kindItem, item(0), false, false, 0, 1},
		{kindCancel, &cancelData{Reason: "cancelled", ItemsDone: 1}, false, true, 0, 1},
		{kindResume, &resumeData{Attempt: 1, ItemsDone: 1}, false, false, 1, 1},
		{kindItem, item(1), false, false, 1, 2}, // the resumed run crashes here
		{kindCancel, &cancelData{Reason: "cancelled", ItemsDone: 2}, false, true, 1, 2},
		{kindResume, &resumeData{Attempt: 2, ItemsDone: 2}, false, false, 2, 2},
		{kindItem, item(2), false, false, 2, 3},
		{kindItem, item(3), false, false, 2, 4},
		{kindComplete, &completeData{ItemsDone: 4, OKItems: 2}, true, false, 2, 4},
	}
	for i, st := range steps {
		if _, err := l.Append(st.kind, st.payload); err != nil {
			t.Fatal(err)
		}
		rf, err := ReadRun(path)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if rf.Completed != st.completed || rf.Cancelled != st.cancelled || rf.Resumes != st.resumes || len(rf.Results) != st.results {
			t.Fatalf("step %d (%s): completed=%v cancelled=%v resumes=%d results=%d, want %v/%v/%d/%d",
				i, st.kind, rf.Completed, rf.Cancelled, rf.Resumes, len(rf.Results), st.completed, st.cancelled, st.resumes, st.results)
		}
	}
	// No run records an item outside its header's worklist: the fold
	// refuses one rather than dropping it from the results.
	if _, err := l.Append(kindItem, item(4)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRun(path); err == nil || !strings.Contains(err.Error(), "outside the worklist") {
		t.Fatalf("ReadRun of an item outside the worklist: %v, want an error", err)
	}
}

func TestCreateLedgerRefusesOverwrite(t *testing.T) {
	path := mkLedger(t, 1)
	if _, err := CreateLedger(path); err == nil {
		t.Fatal("CreateLedger overwrote an existing run ledger")
	}
}
