package jobs

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
)

// The run ledger is the durability and integrity layer of the jobs
// subsystem (DESIGN.md decision 11), following the off-chain-results /
// on-chain-integrity split of hybrid audit-log architectures: results live
// as plain JSONL anyone can read, while each record embeds the SHA-256
// digest of its predecessor, so the file as a whole is tamper-evident. The
// digest covers every field's value, and replay refuses a line that is not
// byte for byte what Append writes for the record it parses to (a key in
// another case, extra spacing, a different escape), so a changed byte
// anywhere is caught at its own line, and Verify reports the first such line.
//
// Record kinds, in the order a run emits them:
//
//	header      — job identity: spec, model fingerprint, item-list hash
//	item        — one per-item result (the payload the sweep exists for)
//	quarantine  — a poison item exhausted its retry budget; resume skips it
//	shard_done  — a work unit completed; resume skips these shards
//	checkpoint  — periodic fsync barrier with progress counters
//	resume      — a crashed/cancelled run was reopened
//	cancel      — the run was cancelled
//	complete    — the run finished every shard
//
// Wall-clock timestamps are chained (they are part of what an auditor wants
// un-forgeable) but live at the record level, not inside item data, so the
// per-item payloads of two runs over the same items are byte-comparable.

// genesisHash anchors the chain: the "previous digest" of the first record.
const genesisHash = "0000000000000000000000000000000000000000000000000000000000000000"

// Record kinds.
const (
	kindHeader     = "header"
	kindItem       = "item"
	kindShardDone  = "shard_done"
	kindCheckpoint = "checkpoint"
	kindResume     = "resume"
	kindCancel     = "cancel"
	kindComplete   = "complete"
	kindQuarantine = "quarantine"
)

// Record is one ledger line. Hash covers every other field, chained through
// Prev; Data is the kind-specific payload, stored raw so replay hashes the
// exact bytes that were written.
type Record struct {
	Seq  int64           `json:"seq"`
	Prev string          `json:"prev"`
	Kind string          `json:"kind"`
	TS   int64           `json:"ts"` // unix milliseconds, wall clock
	Data json.RawMessage `json:"data,omitempty"`
	Hash string          `json:"hash"`
}

// chainHash computes a record's digest: SHA-256 over the previous digest and
// every chained field, length-prefixed so field boundaries are unambiguous.
func chainHash(prev string, seq int64, kind string, ts int64, data []byte) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%d\n%d:%s\n%d\n%d:", prev, seq, len(kind), kind, ts, len(data))
	h.Write(data)
	return hex.EncodeToString(h.Sum(nil))
}

// ChainError reports the first broken link found while verifying a ledger.
type ChainError struct {
	Line   int   // 1-based line number in the file
	Seq    int64 // sequence number of the offending record (0 if unparseable)
	Reason string
}

func (e *ChainError) Error() string {
	return fmt.Sprintf("ledger: chain broken at line %d (seq %d): %s", e.Line, e.Seq, e.Reason)
}

// verifyRecord checks one record's digest and chain position: the sequence
// must be contiguous, Prev must equal the preceding record's digest, and
// the record's own hash must recompute.
func verifyRecord(rec *Record, prevHash string, wantSeq int64, line int) *ChainError {
	if rec.Seq != wantSeq {
		return &ChainError{Line: line, Seq: rec.Seq, Reason: fmt.Sprintf("sequence gap: want %d", wantSeq)}
	}
	if rec.Prev != prevHash {
		return &ChainError{Line: line, Seq: rec.Seq, Reason: "prev digest does not match preceding record"}
	}
	if got := chainHash(rec.Prev, rec.Seq, rec.Kind, rec.TS, rec.Data); got != rec.Hash {
		return &ChainError{Line: line, Seq: rec.Seq, Reason: "record digest mismatch"}
	}
	return nil
}

// Ledger is an append-only hash-chained JSONL file. Appends are serialized
// internally; every record's digest chains to its predecessor.
type Ledger struct {
	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	lastHash string
	nextSeq  int64
	bytes    atomic.Int64
	now      func() time.Time
	// torn is the error of an append that left half a line in the file.
	// Every later Append returns it: like the crash it stands for, it stops
	// all writers, so the half line stays the file's last.
	torn error
}

// CreateLedger starts a fresh ledger at path (failing if it exists — a run
// ledger is never silently overwritten).
func CreateLedger(path string) (*Ledger, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	return &Ledger{f: f, w: bufio.NewWriter(f), lastHash: genesisHash, nextSeq: 1, now: time.Now}, nil
}

// OpenLedger reopens an existing ledger for append after replaying (and
// verifying) its chain. A final line without its newline — the signature of
// a crash mid-append — is truncated away; any other damage, a complete final
// record included, is a hard error, since repairing it would defeat the
// tamper evidence. Returns the replayed records alongside the ledger
// positioned for the next append.
func OpenLedger(path string) (*Ledger, []Record, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("ledger: %w", err)
	}
	recs, goodBytes, err := replay(raw, true)
	if err != nil {
		return nil, nil, err
	}
	if goodBytes < int64(len(raw)) {
		// Crash-truncated tail: cut the file back to the last intact record
		// so the resumed chain appends cleanly and Verify passes afterward.
		if err := os.Truncate(path, goodBytes); err != nil {
			return nil, nil, fmt.Errorf("ledger: truncating torn tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("ledger: %w", err)
	}
	l := &Ledger{f: f, w: bufio.NewWriter(f), lastHash: genesisHash, nextSeq: 1, now: time.Now}
	if n := len(recs); n > 0 {
		l.lastHash = recs[n-1].Hash
		l.nextSeq = recs[n-1].Seq + 1
	}
	l.bytes.Store(goodBytes)
	return l, recs, nil
}

// replay parses and chain-verifies raw ledger bytes. Append writes a record
// and its newline together, so only a final line without its newline can be
// a torn append: with tolerateTail it is excluded (its byte offset is where
// the caller should truncate); without it, it is an error, as is every other
// bad line. The returned offset is the end of the last intact record.
func replay(raw []byte, tolerateTail bool) ([]Record, int64, error) {
	var recs []Record
	prev := genesisHash
	var offset int64
	line := 0
	for len(raw) > 0 {
		line++
		nl := bytes.IndexByte(raw, '\n')
		if nl < 0 {
			if tolerateTail {
				return recs, offset, nil
			}
			return nil, 0, &ChainError{Line: line, Reason: "record line is missing its newline"}
		}
		row := raw[:nl]
		var rec Record
		if err := json.Unmarshal(row, &rec); err != nil {
			return nil, 0, &ChainError{Line: line, Seq: rec.Seq, Reason: "record is not valid JSON"}
		}
		if cerr := verifyRecord(&rec, prev, int64(len(recs)+1), line); cerr != nil {
			return nil, 0, cerr
		}
		// encoding/json matches keys case-insensitively and skips spacing,
		// and the digest covers values only: the bytes must be Append's own.
		if canon, err := json.Marshal(rec); err != nil || !bytes.Equal(canon, row) {
			return nil, 0, &ChainError{Line: line, Seq: rec.Seq, Reason: "record is not in canonical form"}
		}
		prev = rec.Hash
		recs = append(recs, rec)
		offset += int64(nl + 1)
		raw = raw[nl+1:]
	}
	return recs, offset, nil
}

// VerifyFile strictly validates a ledger's hash chain, returning the number
// of intact records. The error, when non-nil, is a *ChainError naming the
// first broken link. Unlike OpenLedger it tolerates nothing — a torn tail
// is also reported, since an auditor wants to know the file is incomplete.
func VerifyFile(path string) (int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("ledger: %w", err)
	}
	recs, _, err := replay(raw, false)
	if err != nil {
		return 0, err
	}
	return len(recs), nil
}

// Append marshals data, stamps and chains a record, and writes it. The
// write is flushed to the OS on every record (durability against process
// crash); callers needing media durability call Sync at checkpoints.
func (l *Ledger) Append(kind string, data interface{}) (Record, error) {
	var raw json.RawMessage
	if data != nil {
		b, err := json.Marshal(data)
		if err != nil {
			return Record{}, fmt.Errorf("ledger: marshal %s: %w", kind, err)
		}
		raw = b
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.torn != nil {
		return Record{}, l.torn
	}
	rec := Record{
		Seq:  l.nextSeq,
		Prev: l.lastHash,
		Kind: kind,
		TS:   l.now().UnixMilli(),
		Data: raw,
	}
	rec.Hash = chainHash(rec.Prev, rec.Seq, rec.Kind, rec.TS, rec.Data)
	line, err := json.Marshal(rec)
	if err != nil {
		return Record{}, fmt.Errorf("ledger: marshal record: %w", err)
	}
	line = append(line, '\n')
	if f := fault.Hit(fault.LedgerAppend); f != nil && f.Failure() {
		if f.Torn {
			// Simulate a crash mid-append: half the record reaches the file,
			// the chain state does not advance, and no writer appends after
			// it. OpenLedger's torn-tail repair is what recovers from this.
			_, _ = l.w.Write(line[:len(line)/2])
			_ = l.w.Flush()
			l.torn = fmt.Errorf("ledger: append: %w", f)
			return Record{}, l.torn
		}
		// A clean transient failure fires before any byte is written, so the
		// caller may safely retry: the chain has not moved.
		return Record{}, fmt.Errorf("ledger: append: %w", f)
	}
	// Real write/flush errors stay unclassified (treated as permanent): a
	// bufio failure cannot guarantee zero bytes reached the file, so a retry
	// could append past garbage.
	if _, err := l.w.Write(line); err != nil {
		return Record{}, fmt.Errorf("ledger: append: %w", err)
	}
	if err := l.w.Flush(); err != nil {
		return Record{}, fmt.Errorf("ledger: flush: %w", err)
	}
	l.lastHash = rec.Hash
	l.nextSeq++
	l.bytes.Add(int64(len(line)))
	return rec, nil
}

// Sync forces the file to stable storage — called at checkpoint records so
// a media-level crash loses at most one checkpoint interval.
func (l *Ledger) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if f := fault.Hit(fault.LedgerSync); f != nil && f.Failure() {
		return fmt.Errorf("ledger: sync: %w", f)
	}
	if err := l.w.Flush(); err != nil {
		return fault.MarkTransient(err)
	}
	if err := l.f.Sync(); err != nil {
		return fault.MarkTransient(err)
	}
	return nil
}

// Bytes reports how many ledger bytes have been written (including replayed
// ones after a resume). Feeds the /v1/stats jobs block.
func (l *Ledger) Bytes() int64 { return l.bytes.Load() }

// Close flushes and closes the file.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if f := fault.Hit(fault.LedgerClose); f != nil && f.Failure() {
		return fmt.Errorf("ledger: close: %w", f)
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	return l.f.Close()
}
