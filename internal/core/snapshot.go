package core

import (
	"fmt"

	"github.com/loloha-ldp/loloha/internal/longitudinal"
)

// Snapshot-contract assertion (wirecontract): the LOLOHA aggregator's
// round state is (counts, n) like every other family's — its per-user
// hash and table caches are pure functions of the enrolled hash seeds and
// rebuild lazily after a restore, so they are deliberately not exported.
var _ longitudinal.SnapshotTallier = (*Aggregator)(nil)

// ExportTally implements longitudinal.SnapshotTallier. It flushes the
// pending bit-sliced counts first, so the export is the round's exact
// tally.
//
//loloha:noalloc
func (a *Aggregator) ExportTally(dst []int64) ([]int64, int) {
	a.flush()
	return append(dst, a.counts...), a.n
}

// ImportTally implements longitudinal.SnapshotTallier.
func (a *Aggregator) ImportTally(counts []int64, n int) error {
	if len(counts) != len(a.counts) {
		return fmt.Errorf("core: LOLOHA import has %d counts, aggregator tallies %d", len(counts), len(a.counts))
	}
	if n < 0 {
		return fmt.Errorf("core: LOLOHA import has negative report count %d", n)
	}
	for i, c := range counts {
		a.counts[i] += c
	}
	a.n += n
	return nil
}
