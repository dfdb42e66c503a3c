package coord

import (
	"fmt"
	"io"
	"os"
	"time"

	"mpsockit/internal/dse"
)

// sweep is the server-side record of one tenant sweep. Every mutable
// field is guarded by the owning Server's mutex; the sweep carries its
// own accumulator, lease table and checkpoint log so tenants share
// nothing but the scheduler — a cancelled or crashed-out sweep cannot
// corrupt a neighbour.
type sweep struct {
	id        string
	header    dse.Header
	points    []dse.Point
	costs     []float64
	totalCost float64

	acc   *dse.Accumulator
	table *leaseTable
	// state is SweepActive, SweepDone or SweepCancelled.
	state      string
	registered time.Time
	finished   time.Time

	// ckptPath is the sweep's on-disk JSONL log ("" disables
	// persistence). It is resumed when present; while active it is an
	// append-only log of accepted lines in acceptance order; completion
	// atomically rewrites it into the canonical point-ordered final
	// bytes and cancellation removes it.
	ckptPath string
	ckptFile *os.File
	// ckptBytes counts the log's bytes actually on disk.
	ckptBytes int64
	// ckptLost marks a log whose last append failed: the file handle was
	// dropped, and the next batch rebuilds the log from the accumulator
	// (which holds every accepted line) rather than appending after a
	// hole.
	ckptLost bool

	// debt is the fair-scheduling deficit in EstCost units (sched.go).
	debt float64

	// frontAt is the Done count at the last live-front log line.
	// baseDone/baseCost anchor rates: work resumed from the checkpoint
	// is not claimed as this process's progress.
	frontAt  int
	baseDone int
	baseCost float64

	// done closes when the sweep reaches a terminal state.
	done chan struct{}
}

// newSweep builds the in-memory record for an expanded sweep. The
// caller attaches the lease table (it needs server-level knobs) and
// the checkpoint log.
func newSweep(header dse.Header, points []dse.Point, now time.Time) *sweep {
	sw := &sweep{
		id:         SweepID(header),
		header:     header,
		points:     points,
		costs:      make([]float64, len(points)),
		acc:        dse.NewAccumulator(points),
		state:      SweepActive,
		registered: now,
		done:       make(chan struct{}),
	}
	for i, p := range points {
		sw.costs[i] = dse.EstCost(p)
		sw.totalCost += sw.costs[i]
	}
	return sw
}

// resume re-accepts a checkpoint log read from disk. The reader has
// already salvaged any torn tail; a header that disagrees with the
// sweep's identity is refused.
func (sw *sweep) resume(lg *dse.Log) error {
	if err := lg.Header.Check(sw.header); err != nil {
		return fmt.Errorf("coord: checkpoint %s is from a different sweep (%v); refusing to resume", lg.Path, err)
	}
	for i, r := range lg.Results {
		if _, err := sw.acc.AddResult(r, lg.Raw[i]); err != nil {
			return fmt.Errorf("coord: resume %s: %w", lg.Path, err)
		}
	}
	return nil
}

// rewriteLog atomically replaces the sweep's log (temp file + fsync +
// rename) with the header plus every accepted line in point-ID order.
// A crash mid-rewrite leaves the previous log intact rather than a torn
// mid-file line the salvage path (built for torn tails) would refuse.
// For a complete sweep these are the canonical final bytes —
// byte-identical to a fault-free standalone run and to what GET
// /sweeps/{id}/result serves — so re-finalizing after a restart
// rewrites identical content.
func (sw *sweep) rewriteLog() error {
	if sw.ckptPath == "" {
		return nil
	}
	var n int64
	err := dse.AtomicWriteFile(sw.ckptPath, func(w io.Writer) (err error) {
		n, err = sw.acc.WriteTo(w, sw.header)
		return err
	})
	if err == nil {
		sw.ckptBytes = n
	}
	return err
}

// openLog rewrites the log cleanly and opens it for appending: on
// adoption, so a salvaged torn tail never stays in a file about to be
// appended to, and after a failed append.
func (sw *sweep) openLog() error {
	if err := sw.rewriteLog(); err != nil || sw.ckptPath == "" {
		return err
	}
	f, err := os.OpenFile(sw.ckptPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	sw.ckptFile, sw.ckptLost = f, false
	return nil
}

// appendLog appends one batch of newly accepted, newline-terminated
// lines. A failed append drops the file handle, and the next batch
// rebuilds the whole log instead — one write error never wedges the
// sweep.
func (sw *sweep) appendLog(batch []byte) error {
	if sw.ckptLost {
		return sw.openLog()
	}
	if sw.ckptFile == nil || len(batch) == 0 {
		return nil
	}
	n, err := sw.ckptFile.Write(batch)
	sw.ckptBytes += int64(n)
	if err != nil {
		sw.ckptFile.Close()
		sw.ckptFile, sw.ckptLost = nil, true
	}
	return err
}

// closeLog closes the log file handle; later batches are not logged.
func (sw *sweep) closeLog() error {
	sw.ckptLost = false
	if sw.ckptFile == nil {
		return nil
	}
	err := sw.ckptFile.Close()
	sw.ckptFile = nil
	return err
}

// removeFile deletes the sweep's on-disk log (cancellation reclaims
// its disk budget). Missing files are fine.
func (sw *sweep) removeFile() {
	if sw.ckptPath != "" {
		os.Remove(sw.ckptPath)
	}
	sw.ckptBytes = 0
}

// remainingCost sums the EstCost of points without an accepted result.
func (sw *sweep) remainingCost() float64 {
	rem := 0.0
	for i := range sw.points {
		if !sw.acc.Has(i) {
			rem += sw.costs[i]
		}
	}
	return rem
}

// status snapshots the sweep's registry row. Caller holds the server
// mutex.
func (sw *sweep) status() SweepStatus {
	return SweepStatus{
		ID:              sw.id,
		Spec:            sw.header.Spec,
		Seed:            sw.header.Seed,
		SpecHash:        sw.header.SpecHash,
		State:           sw.state,
		Done:            sw.acc.Done(),
		Total:           sw.acc.Total(),
		Duplicates:      sw.acc.Duplicates(),
		ActiveLeases:    len(sw.table.active),
		PendingPoints:   sw.table.pendingPoints(),
		Debt:            sw.debt,
		CheckpointBytes: sw.ckptBytes,
	}
}
