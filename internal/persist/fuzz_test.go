package persist

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/loloha-ldp/loloha/internal/longitudinal"
)

// FuzzSnapshotDecode drives the snapshot decoder with hostile bytes: a
// malformed image must error without panicking or over-allocating, and a
// successfully decoded image must re-encode byte-identically (the
// canonical-form contract every other codec in this repository pins).
func FuzzSnapshotDecode(f *testing.F) {
	seed, err := Append(nil, &Snapshot{
		SpecHash: 42,
		Round:    3,
		HasUsers: true,
		Shards: []Shard{
			{
				Tally:   longitudinal.Tally{Counts: []int64{1, -2, 3}, N: 2},
				Tallied: 2,
				Users: []User{
					{ID: 1, Reg: longitudinal.Registration{HashSeed: 9}, Reported: true},
					{ID: 4, Reg: longitudinal.Registration{Sampled: []int{0, 2}}},
				},
			},
			{Tally: longitudinal.Tally{Counts: []int64{0, 0, 0}}},
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-5])
	f.Add([]byte(Magic))
	trunc := append([]byte(nil), seed...)
	binary.LittleEndian.PutUint32(trunc[16:], 1<<14) // hostile shard count
	f.Add(trunc)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		enc, err := Append(nil, s)
		if err != nil {
			t.Fatalf("decoded snapshot does not re-encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("valid image is not canonical:\n in %x\nout %x", data, enc)
		}
	})
}

// FuzzMergeEnvelope drives the LME1 envelope decoder — the bytes a root
// accepts from the network — with hostile input: malformed envelopes must
// error cleanly, the zero-copy header parse must agree with the full
// decode about validity of the framing, and a valid envelope must
// re-encode byte-identically.
func FuzzMergeEnvelope(f *testing.F) {
	snap := &Snapshot{
		SpecHash:  7,
		Round:     2,
		HasLedger: true,
		Shards:    []Shard{{Tally: longitudinal.Tally{Counts: []int64{4, 0, -1}, N: 3}, Tallied: 3}},
		Ledger:    []LedgerEntry{{Leaf: "a", Seq: 5, Round: 1, Reports: 10}},
	}
	seed, err := AppendEnvelope(nil, &Envelope{Leaf: "leaf-0", Round: 2, Seq: 6, Snap: snap})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Add([]byte(EnvelopeMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, herr := ParseEnvelopeHeader(data)
		env, derr := DecodeEnvelope(data)
		if herr != nil {
			if derr == nil {
				t.Fatalf("full decode accepted framing the header parse rejected: %v", herr)
			}
			return
		}
		if derr != nil {
			// Framing valid, inner image bad — the dedup fast path.
			return
		}
		if string(h.Leaf) != env.Leaf || h.Round != env.Round || h.Seq != env.Seq {
			t.Fatalf("header view %+v disagrees with decode %+v", h, env)
		}
		enc, err := AppendEnvelope(nil, env)
		if err != nil {
			t.Fatalf("decoded envelope does not re-encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("valid envelope is not canonical:\n in %x\nout %x", data, enc)
		}
	})
}
