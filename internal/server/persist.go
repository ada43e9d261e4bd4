package server

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"

	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/persist"
)

// Durability and the collector tree. A stream's open-round state is
// per-shard longitudinal.Tally values plus the registration tables, all
// of which the persist codec serializes exactly — so a snapshot taken
// mid-round and restored later ends the round bit-identically to an
// uninterrupted run, and a root stream that applies the exported tallies
// of K leaves (MergeEnvelope) estimates bit-identically to a single
// stream that ingested every report itself.

// ErrSnapshotMismatch reports a snapshot produced under a different
// protocol configuration than the stream's: its spec hash disagrees. The
// whole snapshot is rejected — restoring or merging tallies across
// protocol parameters would corrupt every estimate, exactly the
// whole-batch fault ErrColumnarMismatch guards on the ingestion path.
var ErrSnapshotMismatch = errors.New("snapshot does not match the stream's protocol")

// Snapshot writes the stream's full open-round state — every shard's
// tallies, registration table and reported bits, plus the open round's
// index — as one LSS1 image. It excludes all ingestion for the copy (the
// same barrier CloseRound takes) but encodes and writes after releasing
// the locks, so a slow disk never stalls ingestion longer than the copy.
func (s *Stream) Snapshot(w io.Writer) error {
	return persist.Write(w, s.exportState())
}

// exportState deep-copies the stream's open-round state under the round
// barrier.
func (s *Stream) exportState() *persist.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := &persist.Snapshot{
		SpecHash: s.specHash,
		Round:    s.baseRound + len(s.results),
		HasUsers: true,
		Shards:   make([]persist.Shard, len(s.shards)),
	}
	for i, sh := range s.shards {
		dst := &snap.Shards[i]
		dst.Tally = copyTally(sh.agg.Tally())
		dst.Tallied = sh.tallied
		dst.Users = make([]persist.User, 0, len(sh.slots))
		for userID, slot := range sh.slots {
			dst.Users = append(dst.Users, persist.User{
				ID:       userID,
				Reg:      sh.regs[slot],
				Reported: sh.reported.Get(slot),
			})
		}
		// The codec demands ascending IDs (canonical form); sorting also
		// makes the image independent of map iteration order.
		sort.Slice(dst.Users, func(a, b int) bool { return dst.Users[a].ID < dst.Users[b].ID })
	}
	if len(s.ledger) > 0 {
		// The dedup ledger rides the same image as the tallies it
		// describes, so a restored root can never hold counts it does not
		// remember applying (or remember applies it does not hold).
		snap.HasLedger = true
		snap.Ledger = make([]persist.LedgerEntry, 0, len(s.ledger))
		for _, e := range s.ledger {
			snap.Ledger = append(snap.Ledger, e)
		}
		sort.Slice(snap.Ledger, func(a, b int) bool { return snap.Ledger[a].Leaf < snap.Ledger[b].Leaf })
	}
	return snap
}

// copyTally returns a copy of t that shares no memory with it.
func copyTally(t *longitudinal.Tally) longitudinal.Tally {
	return longitudinal.Tally{Counts: slices.Clone(t.Counts), N: t.N}
}

// RestoreStream rebuilds a stream from a snapshot written by Snapshot.
// proto must be configured identically to the producing stream's protocol
// (the spec hashes must agree; ErrSnapshotMismatch otherwise), but opts
// need not match the original options: users re-partition onto the new
// shard count deterministically (shard assignment is a pure hash of the
// user ID), and all tallies land in shard 0, which is exact because
// CloseRound folds every shard into shard 0 before estimating. An image
// whose shard sections disagree on tally length restores nothing. Rounds
// published before the snapshot are not retained: Rounds continues from
// the snapshot's round index and Round(t) errors for earlier t.
func RestoreStream(r io.Reader, proto longitudinal.Protocol, opts ...Option) (*Stream, error) {
	snap, err := persist.Read(r)
	if err != nil {
		return nil, err
	}
	s, err := NewStream(proto, opts...)
	if err != nil {
		return nil, err
	}
	if snap.SpecHash != s.specHash {
		return nil, fmt.Errorf("server: snapshot spec hash %#016x, stream has %#016x: %w",
			snap.SpecHash, s.specHash, ErrSnapshotMismatch)
	}
	if !snap.HasUsers {
		return nil, fmt.Errorf("server: tally-only snapshot cannot restore a stream (no registration tables)")
	}
	if _, err := s.addTallies(snap.Shards); err != nil {
		return nil, fmt.Errorf("server: restoring tallies: %w", err)
	}
	for si := range snap.Shards {
		for _, u := range snap.Shards[si].Users {
			sh := s.shardOf(u.ID)
			if err := s.enroll(sh, u.ID, u.Reg); err != nil {
				return nil, fmt.Errorf("server: restoring user %d: %w", u.ID, err)
			}
			if u.Reported {
				sh.reported.Set(sh.slots[u.ID], true)
			}
		}
	}
	if len(snap.Ledger) > 0 {
		s.ledger = make(map[string]persist.LedgerEntry, len(snap.Ledger))
		for _, e := range snap.Ledger {
			s.ledger[e.Leaf] = e
		}
	}
	s.baseRound = snap.Round
	return s, nil
}

// addTallies adds every section's tally into shard 0 and returns the
// reports they carry — all of them or, on error, none: the sections are
// summed into a scratch tally first, so a section that Tally.Add rejects
// (a wrong length, a negative n) leaves the stream untouched however many
// sections precede it. Only tallies move: registration sections, if
// present, are the caller's (the root never owns a leaf's users). The
// caller holds s.mu exclusively, so neither the round close nor
// ingestion can run and the shard lock is not taken.
func (s *Stream) addTallies(sections []persist.Shard) (int, error) {
	sh := s.shards[0]
	round := sh.agg.Tally()
	sum := longitudinal.Tally{Counts: make([]int64, len(round.Counts))}
	reports := 0
	for si := range sections {
		if err := sum.Add(sections[si].Tally); err != nil {
			return 0, fmt.Errorf("server: shard section %d: %w", si, err)
		}
		reports += sections[si].Tallied
	}
	if err := round.Add(sum); err != nil {
		return 0, err // unreachable: sum has round's length and n ≥ 0
	}
	sh.tallied += reports
	return reports, nil
}

// MergeEnvelope applies one collector-tree merge envelope exactly once —
// the root half of exactly-once delivery. The per-leaf ledger records the
// highest envelope sequence number already applied; an envelope at or
// below that watermark is a retry of something the tallies already
// contain, so it is acknowledged as a duplicate without touching a count
// (and without even decoding would-be tallies — the netserver layer
// checks ShouldApply first). The ledger rides the stream's snapshot, so a
// restored root keeps refusing the duplicates its counts already absorbed.
//
// Returns the reports merged and whether the envelope was a duplicate.
func (s *Stream) MergeEnvelope(env *persist.Envelope) (int, bool, error) {
	if len(env.Leaf) == 0 || len(env.Leaf) > persist.MaxLeafName {
		return 0, false, fmt.Errorf("server: envelope leaf name length %d, want 1..%d",
			len(env.Leaf), persist.MaxLeafName)
	}
	if env.Snap.SpecHash != s.specHash {
		return 0, false, fmt.Errorf("server: snapshot spec hash %#016x, stream has %#016x: %w",
			env.Snap.SpecHash, s.specHash, ErrSnapshotMismatch)
	}
	// Exclusive: the ledger update and the tally import must be atomic
	// with respect to Snapshot's exportState, or an image could record the
	// envelope as applied while missing its counts (or vice versa).
	s.mu.Lock()
	defer s.mu.Unlock()
	entry, seen := s.ledger[env.Leaf]
	if seen && env.Seq <= entry.Seq {
		entry.Dups++
		s.ledger[env.Leaf] = entry
		return 0, true, nil
	}
	merged, err := s.addTallies(env.Snap.Shards)
	if err != nil {
		return 0, false, err
	}
	entry.Leaf = env.Leaf
	entry.Seq = env.Seq
	entry.Round = env.Round
	entry.Reports += uint64(merged)
	if s.ledger == nil {
		s.ledger = make(map[string]persist.LedgerEntry)
	}
	s.ledger[env.Leaf] = entry
	return merged, false, nil
}

// ShouldApply reports whether an envelope with the given identity would
// merge (true) or be deduplicated (false). It lets the network layer skip
// decoding a duplicate's payload; the ledger re-check inside
// MergeEnvelope remains authoritative.
func (s *Stream) ShouldApply(leaf []byte, seq uint64) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	entry, seen := s.ledger[string(leaf)]
	return !seen || seq > entry.Seq
}

// RecordDuplicate bumps the duplicate counter for a leaf whose envelope
// was deduplicated on the ShouldApply fast path (without a MergeEnvelope
// call). Unknown leaves are ignored: a duplicate implies a prior apply.
func (s *Stream) RecordDuplicate(leaf []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if entry, seen := s.ledger[string(leaf)]; seen {
		entry.Dups++
		s.ledger[string(leaf)] = entry
	}
}

// Ledger returns a copy of the stream's per-leaf applied-envelope
// watermarks in ascending leaf-name order; nil when the stream never
// merged an envelope.
func (s *Stream) Ledger() []persist.LedgerEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.ledger) == 0 {
		return nil
	}
	out := make([]persist.LedgerEntry, 0, len(s.ledger))
	for _, e := range s.ledger {
		out = append(out, e)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Leaf < out[b].Leaf })
	return out
}

// CloseRoundExport closes the current round exactly like CloseRound and
// additionally returns the round's merged tallies as a one-shard,
// tally-only snapshot — the leaf half of the collector tree: the leaf
// publishes its local RoundResult (its partition's estimates) and ships
// the snapshot to the root inside an LME1 envelope, whose MergeEnvelope
// recovers the global counts.
func (s *Stream) CloseRoundExport() (RoundResult, *persist.Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Fold first so the export sees the full round; the fold inside
	// closeRoundLocked then finds shards 1..S−1 already empty.
	snap := &persist.Snapshot{
		SpecHash: s.specHash,
		Round:    s.baseRound + len(s.results),
		Shards:   []persist.Shard{{Tally: copyTally(s.foldShards())}},
	}
	res := s.closeRoundLocked(0)
	snap.Shards[0].Tallied = res.Reports
	return res, snap, nil
}
