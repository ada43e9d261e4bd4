package server

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/loloha-ldp/loloha/internal/core"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/persist"
	"github.com/loloha-ldp/loloha/internal/randsrc"
)

// treeFixture is a two-leaf collector tree plus the single-stream
// baseline it must match, with per-user payloads generated once.
type treeFixture struct {
	single, root *Stream
	leaf         []*Stream
	payloads     [][][]byte // [round][user]
}

func newTreeFixture(t *testing.T, k, n, rounds, leaves int) *treeFixture {
	t.Helper()
	proto, err := core.NewBinary(k, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := &treeFixture{leaf: make([]*Stream, leaves)}
	if f.single, err = NewStream(proto, WithShards(2)); err != nil {
		t.Fatal(err)
	}
	if f.root, err = NewStream(proto, WithShards(2)); err != nil {
		t.Fatal(err)
	}
	for i := range f.leaf {
		if f.leaf[i], err = NewStream(proto, WithShards(2)); err != nil {
			t.Fatal(err)
		}
	}
	f.payloads = make([][][]byte, rounds)
	for r := range f.payloads {
		f.payloads[r] = make([][]byte, n)
	}
	for u := 0; u < n; u++ {
		cl := proto.NewClient(randsrc.Derive(23, uint64(u)))
		reg := cl.WireRegistration()
		if err := f.single.Enroll(u, reg); err != nil {
			t.Fatal(err)
		}
		if err := f.leaf[u%leaves].Enroll(u, reg); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rounds; r++ {
			f.payloads[r][u] = cl.AppendReport(nil, (u*7+r)%k)
		}
	}
	return f
}

func (f *treeFixture) ingestRound(t *testing.T, r int) {
	t.Helper()
	for u, p := range f.payloads[r] {
		if err := f.single.Ingest(u, p); err != nil {
			t.Fatal(err)
		}
		if err := f.leaf[u%len(f.leaf)].Ingest(u, p); err != nil {
			t.Fatal(err)
		}
	}
}

// exportEnvelope closes the leaf's round and wraps the export in an
// envelope, round-tripping it through the wire codec so the test covers
// the exact bytes a root would decode.
func exportEnvelope(t *testing.T, leaf *Stream, name string, seq uint64) (*persist.Envelope, int) {
	t.Helper()
	res, snap, err := leaf.CloseRoundExport()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := persist.AppendEnvelope(nil, &persist.Envelope{Leaf: name, Round: res.Round, Seq: seq, Snap: snap})
	if err != nil {
		t.Fatal(err)
	}
	env, err := persist.DecodeEnvelope(enc)
	if err != nil {
		t.Fatal(err)
	}
	return env, res.Reports
}

// TestMergeEnvelopeExactlyOnce pins the tentpole invariant at the stream
// layer: a delivery schedule full of retries — every envelope shipped
// twice, plus stale re-ships of the previous round — merges to estimates
// bit-identical to the single-stream baseline, with every duplicate
// counted in the ledger and none applied.
func TestMergeEnvelopeExactlyOnce(t *testing.T) {
	const k, n, rounds = 16, 80, 3
	f := newTreeFixture(t, k, n, rounds, 2)
	seq := make([]uint64, len(f.leaf))
	prev := make([]*persist.Envelope, len(f.leaf))
	wantDups := make([]uint64, len(f.leaf))
	wantReports := make([]uint64, len(f.leaf))
	for r := 0; r < rounds; r++ {
		f.ingestRound(t, r)
		for i, lf := range f.leaf {
			seq[i]++
			env, reports := exportEnvelope(t, lf, fmt.Sprintf("leaf-%d", i), seq[i])
			merged, dup, err := f.root.MergeEnvelope(env)
			if err != nil {
				t.Fatalf("round %d leaf %d: %v", r, i, err)
			}
			if dup || merged != reports {
				t.Fatalf("round %d leaf %d: merged %d (dup=%v), want %d fresh", r, i, merged, dup, reports)
			}
			wantReports[i] += uint64(reports)
			// Retry storm: the same envelope again (ack lost), then the
			// previous round's envelope (redial replaying the outbox).
			retries := []*persist.Envelope{env}
			if prev[i] != nil {
				retries = append(retries, prev[i])
			}
			for _, re := range retries {
				m, d, err := f.root.MergeEnvelope(re)
				if err != nil {
					t.Fatalf("round %d leaf %d retry: %v", r, i, err)
				}
				if !d || m != 0 {
					t.Fatalf("round %d leaf %d: retry merged %d (dup=%v), want deduplicated", r, i, m, d)
				}
				wantDups[i]++
			}
			prev[i] = env
		}
		sameRound(t, fmt.Sprintf("round %d", r), f.root.CloseRound(), f.single.CloseRound())
	}
	ledger := f.root.Ledger()
	if len(ledger) != len(f.leaf) {
		t.Fatalf("%d ledger entries, want %d", len(ledger), len(f.leaf))
	}
	for i, e := range ledger {
		if e.Leaf != fmt.Sprintf("leaf-%d", i) {
			t.Fatalf("ledger[%d] = %q, want sorted leaf names", i, e.Leaf)
		}
		if e.Seq != seq[i] || e.Round != rounds-1 || e.Dups != wantDups[i] || e.Reports != wantReports[i] {
			t.Fatalf("ledger[%d] = %+v, want seq=%d round=%d dups=%d reports=%d",
				i, e, seq[i], rounds-1, wantDups[i], wantReports[i])
		}
	}
}

// TestMergeEnvelopeLedgerSurvivesRestart pins that the dedup ledger rides
// the root's snapshot: a restored root still refuses the envelopes its
// counts already absorbed, and still accepts the next fresh one.
func TestMergeEnvelopeLedgerSurvivesRestart(t *testing.T) {
	const k, n = 16, 60
	f := newTreeFixture(t, k, n, 2, 2)
	proto := f.root.Protocol()

	f.ingestRound(t, 0)
	round0 := make([]*persist.Envelope, len(f.leaf))
	for i, lf := range f.leaf {
		env, _ := exportEnvelope(t, lf, fmt.Sprintf("leaf-%d", i), 1)
		if _, dup, err := f.root.MergeEnvelope(env); err != nil || dup {
			t.Fatalf("leaf %d: dup=%v err=%v", i, dup, err)
		}
		round0[i] = env
	}
	f.single.CloseRound()
	f.root.CloseRound()

	// The root dies and restores from its snapshot (taken with round 1
	// open and the ledger at seq 1 for both leaves).
	var image bytes.Buffer
	if err := f.root.Snapshot(&image); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreStream(&image, proto)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()

	// Round-0 envelopes re-shipped by leaves that never saw the acks:
	// deduplicated, not reapplied.
	for i, env := range round0 {
		if m, dup, err := restored.MergeEnvelope(env); err != nil || !dup || m != 0 {
			t.Fatalf("restored root reapplied leaf %d: merged=%d dup=%v err=%v", i, m, dup, err)
		}
	}
	ledger := restored.Ledger()
	if len(ledger) != 2 || ledger[0].Dups != 1 || ledger[1].Dups != 1 {
		t.Fatalf("restored ledger = %+v, want one dup per leaf", ledger)
	}

	// The next round's envelopes still apply, and the estimates stay
	// bit-identical to the uninterrupted single stream.
	f.ingestRound(t, 1)
	for i, lf := range f.leaf {
		env, reports := exportEnvelope(t, lf, fmt.Sprintf("leaf-%d", i), 2)
		m, dup, err := restored.MergeEnvelope(env)
		if err != nil || dup || m != reports {
			t.Fatalf("leaf %d after restore: merged=%d dup=%v err=%v", i, m, dup, err)
		}
	}
	sameRound(t, "round 1", restored.CloseRound(), f.single.CloseRound())
}

// TestShouldApplyFastPath pins the decode-skip contract: ShouldApply
// agrees with MergeEnvelope's ledger, and RecordDuplicate keeps the dup
// counter accurate when the network layer dedups without decoding.
func TestShouldApplyFastPath(t *testing.T) {
	f := newTreeFixture(t, 16, 20, 1, 2)
	f.ingestRound(t, 0)
	env, _ := exportEnvelope(t, f.leaf[0], "leaf-0", 5)
	if !f.root.ShouldApply([]byte("leaf-0"), 5) {
		t.Fatal("fresh leaf refused")
	}
	if _, dup, err := f.root.MergeEnvelope(env); err != nil || dup {
		t.Fatalf("dup=%v err=%v", dup, err)
	}
	if f.root.ShouldApply([]byte("leaf-0"), 5) {
		t.Fatal("applied seq still reported as fresh")
	}
	if f.root.ShouldApply([]byte("leaf-0"), 4) {
		t.Fatal("stale seq reported as fresh")
	}
	if !f.root.ShouldApply([]byte("leaf-0"), 6) {
		t.Fatal("next seq refused")
	}
	if !f.root.ShouldApply([]byte("leaf-1"), 1) {
		t.Fatal("unknown leaf refused")
	}
	f.root.RecordDuplicate([]byte("leaf-0"))
	f.root.RecordDuplicate([]byte("never-applied")) // ignored: no entry
	ledger := f.root.Ledger()
	if len(ledger) != 1 || ledger[0].Dups != 1 {
		t.Fatalf("ledger = %+v, want leaf-0 with one dup", ledger)
	}
}

// TestMergeEnvelopeRejections pins whole-envelope rejection: a spec-hash
// mismatch or an unledgerable leaf name leaves the root untouched.
func TestMergeEnvelopeRejections(t *testing.T) {
	protoA, err := core.NewBinary(16, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	protoB, err := core.NewBinary(32, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	root, err := NewStream(protoA, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewStream(protoB, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	_, snap, err := other.CloseRoundExport()
	if err != nil {
		t.Fatal(err)
	}
	env := &persist.Envelope{Leaf: "leaf-0", Round: 0, Seq: 1, Snap: snap}
	if _, _, err := root.MergeEnvelope(env); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("err = %v, want ErrSnapshotMismatch", err)
	}
	env.Leaf = ""
	if _, _, err := root.MergeEnvelope(env); err == nil {
		t.Fatal("empty leaf name accepted")
	}
	if root.Pending() != 0 || root.Ledger() != nil {
		t.Fatalf("rejected envelope mutated the root: pending=%d ledger=%v", root.Pending(), root.Ledger())
	}
}

// TestMergeEnvelopeRejectsUnevenSections: an envelope whose shard
// sections disagree on tally length is rejected whole. Neither the codec
// nor the envelope check equal section lengths, so the root must not add
// the sections that precede the bad one — or every retry of the same
// envelope would add them again.
func TestMergeEnvelopeRejectsUnevenSections(t *testing.T) {
	const k = 4
	proto, err := longitudinal.NewLGRR(k, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	uneven := func(hasUsers bool) *persist.Snapshot {
		return &persist.Snapshot{
			SpecHash: longitudinal.SpecHashOf(proto),
			HasUsers: hasUsers,
			Shards: []persist.Shard{
				{Tally: longitudinal.Tally{Counts: []int64{40, 30, 20, 10}, N: 100}, Tallied: 100},
				{Tally: longitudinal.Tally{Counts: []int64{1, 1, 1}, N: 3}, Tallied: 3},
			},
		}
	}

	t.Run("merge", func(t *testing.T) {
		root, err := NewStream(proto, WithShards(2))
		if err != nil {
			t.Fatal(err)
		}
		// Through the wire codec: the bytes a peer can really send.
		wire, err := persist.AppendEnvelope(nil, &persist.Envelope{Leaf: "leaf-0", Seq: 1, Snap: uneven(false)})
		if err != nil {
			t.Fatal(err)
		}
		env, err := persist.DecodeEnvelope(wire)
		if err != nil {
			t.Fatal(err)
		}
		for attempt := 1; attempt <= 3; attempt++ {
			if _, _, err := root.MergeEnvelope(env); err == nil {
				t.Fatalf("attempt %d: uneven envelope accepted", attempt)
			}
			if got := root.Pending(); got != 0 {
				t.Fatalf("attempt %d: Pending() = %d after a rejected envelope, want 0", attempt, got)
			}
			if l := root.Ledger(); l != nil {
				t.Fatalf("attempt %d: rejected envelope reached the ledger: %v", attempt, l)
			}
		}
		if res := root.CloseRound(); res.Reports != 0 {
			t.Fatalf("round after rejected envelopes has %d reports, want 0", res.Reports)
		}
	})

	t.Run("restore", func(t *testing.T) {
		var img bytes.Buffer
		if err := persist.Write(&img, uneven(true)); err != nil {
			t.Fatal(err)
		}
		if s, err := RestoreStream(&img, proto, WithShards(2)); err == nil {
			t.Fatalf("uneven image restored (pending %d)", s.Pending())
		}
	})
}
