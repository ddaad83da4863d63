// Package ledgercheck is the fixture for the ledgercheck analyzer: discarded
// durability errors on ledgers, buffered writers, writable files and the
// device, plus the sanctioned forms — checked errors, audited blank
// discards, and read-only handles.
package ledgercheck

import (
	"bufio"
	"os"

	"repro/internal/device"
	"repro/internal/jobs"
	"repro/internal/model"
)

// Positive: Ledger.Sync error dropped on the floor.
func syncDiscard(l *jobs.Ledger) {
	l.Sync() // want `Ledger.Sync error is discarded`
}

// Positive: deferred Ledger.Close error is still an error.
func closeDeferred(l *jobs.Ledger) {
	defer l.Close() // want `Ledger.Close error is discarded`
}

// Positive: writable file created here; Write and Close errors both matter.
func writeDiscard(path string, b []byte) {
	f, err := os.Create(path)
	if err != nil {
		return
	}
	f.Write(b)      // want `File.Write error is discarded`
	defer f.Close() // want `File.Close error is discarded`
}

// Positive: bufio.Writer swallows write errors until Flush reports them.
func flushDiscard(w *bufio.Writer) {
	w.Flush() // want `Writer.Flush error is discarded`
}

// Negative: checked errors are the contract.
func syncChecked(l *jobs.Ledger) error {
	if err := l.Sync(); err != nil {
		return err
	}
	return l.Close()
}

// Negative: an explicit blank assignment is an audited discard.
func closeAudited(l *jobs.Ledger) {
	_ = l.Close()
}

// Negative: Close on a read-only handle carries no durability information.
func readOnly(path string) {
	f, err := os.Open(path)
	if err != nil {
		return
	}
	defer f.Close()
	var one [1]byte
	_, _ = f.Read(one[:])
}

// Negative: os.OpenFile with O_RDONLY is also read-only.
func readOnlyOpenFile(path string) {
	f, err := os.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return
	}
	defer f.Close()
}

// Suppressed: audited discard on an error path where the original error wins.
func auditedClose(l *jobs.Ledger) {
	//relm:allow(ledgercheck) teardown on an error path; the original error wins
	l.Close() // wantallow `Ledger.Close error is discarded`
}

// Device faults: a bare call or a blank error beside a kept result.
func deviceDiscard(d *device.Device, ctxs [][]model.Token) {
	d.Forward(ctxs)                 // want `Device.Forward error is discarded`
	states, _, _ := d.Prefill(ctxs) // want `Device.Prefill error is discarded`
	_, _, _ = d.ExtendBatch(states, nil)
}
