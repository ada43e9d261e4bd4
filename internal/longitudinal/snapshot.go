package longitudinal

import "fmt"

// Round state — the one contract behind sharding, durability and the
// collector tree. An aggregator's open-round state is exactly a Tally:
// integer support counts plus the number of reports behind them. EndRound
// computes its estimates from those two alone, so copying them out,
// persisting or shipping them, and adding them back is lossless — a
// restored or merged round ends bit-identically to the uninterrupted one.
// Everything else an aggregator holds (per-user hash caches, lookup
// tables) is a pure function of enrollment metadata and rebuilds lazily.
//
// Every consumer is count-vector arithmetic on Aggregator.Tally:
// server.Stream folds its shards into shard 0 when a round closes,
// Snapshot copies each shard's tally to disk for crash recovery, and a
// collector-tree leaf ships its folded round so the root can add it —
// integer adds commute, so the tree's estimates match a single-node run
// exactly.

// Tally is one aggregator's open round: Counts[v] is the support count of
// estimate-domain entry v and N the number of reports tallied into them.
type Tally struct {
	Counts []int64
	N      int
}

// Add adds src into t. src must have exactly t's length and a
// non-negative N; otherwise t is left untouched and an error returned.
// src is not retained or mutated, so a caller may add the same tally
// again (a snapshot re-imported after a failed ship).
func (t *Tally) Add(src Tally) error {
	if len(src.Counts) != len(t.Counts) {
		return fmt.Errorf("longitudinal: tally has %d counts, want %d", len(src.Counts), len(t.Counts))
	}
	if src.N < 0 {
		return fmt.Errorf("longitudinal: tally has negative report count %d", src.N)
	}
	for i, c := range src.Counts {
		t.Counts[i] += c
	}
	t.N += src.N
	return nil
}

// Reset zeroes t in place, keeping its length.
//
//loloha:noalloc
func (t *Tally) Reset() {
	clear(t.Counts)
	t.N = 0
}
