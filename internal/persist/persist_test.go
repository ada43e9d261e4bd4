package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"github.com/loloha-ldp/loloha/internal/longitudinal"
)

func sample() *Snapshot {
	return &Snapshot{
		SpecHash: 0xDEADBEEFCAFEF00D,
		Round:    7,
		HasUsers: true,
		Shards: []Shard{
			{
				Tally:   longitudinal.Tally{Counts: []int64{0, 3, -1, 1 << 40, 5}, N: 12},
				Tallied: 12,
				Users: []User{
					{ID: 0, Reg: longitudinal.Registration{HashSeed: 99}, Reported: true},
					{ID: 5, Reg: longitudinal.Registration{Sampled: []int{1, 7, 3}}},
					{ID: 1 << 33, Reg: longitudinal.Registration{HashSeed: 1}, Reported: true},
				},
			},
			{Tally: longitudinal.Tally{Counts: []int64{2, 2, 2, 2, 2}, N: 2}, Tallied: 2},
		},
	}
}

// reencode pins the canonical property: decode(encode(s)) == s and the
// re-encoding is byte-identical.
func reencode(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	enc, err := Append(nil, s)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	enc2, err := Append(nil, dec)
	if err != nil {
		t.Fatalf("re-Append: %v", err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatalf("re-encoding differs: %x vs %x", enc, enc2)
	}
	return enc
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := sample()
	enc := reencode(t, s)
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.SpecHash != s.SpecHash || dec.Round != s.Round || !dec.HasUsers {
		t.Fatalf("header mismatch: %+v", dec)
	}
	if len(dec.Shards) != len(s.Shards) {
		t.Fatalf("%d shards, want %d", len(dec.Shards), len(s.Shards))
	}
	for i := range s.Shards {
		want, got := &s.Shards[i], &dec.Shards[i]
		if got.N != want.N || got.Tallied != want.Tallied {
			t.Fatalf("shard %d counters: %+v, want %+v", i, got, want)
		}
		if !bytes.Equal(int64Bytes(got.Counts), int64Bytes(want.Counts)) {
			t.Fatalf("shard %d counts: %v, want %v", i, got.Counts, want.Counts)
		}
		if len(got.Users) != len(want.Users) {
			t.Fatalf("shard %d: %d users, want %d", i, len(got.Users), len(want.Users))
		}
		for ui := range want.Users {
			w, g := want.Users[ui], got.Users[ui]
			if g.ID != w.ID || g.Reported != w.Reported || g.Reg.HashSeed != w.Reg.HashSeed ||
				len(g.Reg.Sampled) != len(w.Reg.Sampled) {
				t.Fatalf("shard %d user %d: %+v, want %+v", i, ui, g, w)
			}
		}
	}
	if dec.Reports() != 14 {
		t.Fatalf("Reports() = %d, want 14", dec.Reports())
	}
}

func int64Bytes(v []int64) []byte {
	var b []byte
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, uint64(x))
	}
	return b
}

func TestSnapshotTallyOnly(t *testing.T) {
	s := &Snapshot{SpecHash: 1, Round: 0, Shards: []Shard{{Tally: longitudinal.Tally{Counts: []int64{1, 2}, N: 3}, Tallied: 3}}}
	enc := reencode(t, s)
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.HasUsers || dec.Shards[0].Users != nil {
		t.Fatalf("tally-only snapshot decoded users: %+v", dec.Shards[0])
	}
}

// TestSnapshotEmptyTableRoundTrips pins that HasUsers survives an empty
// registration table — a freshly started daemon snapshotting before any
// enrollment must restore as "with users", not silently flip tally-only.
func TestSnapshotEmptyTableRoundTrips(t *testing.T) {
	s := &Snapshot{SpecHash: 1, HasUsers: true, Shards: []Shard{{Tally: longitudinal.Tally{Counts: []int64{0}}}}}
	dec, err := Decode(reencode(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if !dec.HasUsers {
		t.Fatal("HasUsers lost on an empty table")
	}
}

func TestSnapshotEncodeRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Snapshot)
		want string
	}{
		{"negative round", func(s *Snapshot) { s.Round = -1 }, "round"},
		{"no shards", func(s *Snapshot) { s.Shards = nil }, "shard sections"},
		{"negative n", func(s *Snapshot) { s.Shards[0].N = -1 }, "negative report counters"},
		{"unsorted users", func(s *Snapshot) { s.Shards[0].Users[1].ID = 0 }, "strictly ascending"},
		{"negative user ID", func(s *Snapshot) { s.Shards[0].Users[0].ID = -2 }, "negative"},
		{"users in tally-only", func(s *Snapshot) { s.HasUsers = false }, "tally-only"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := sample()
			tc.mut(s)
			if _, err := Append(nil, s); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

func TestSnapshotDecodeRejections(t *testing.T) {
	enc, err := Append(nil, sample())
	if err != nil {
		t.Fatal(err)
	}
	recrc := func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
		return b
	}
	cases := []struct {
		name string
		mut  func([]byte) []byte
		want string
	}{
		{"empty", func(b []byte) []byte { return nil }, "short snapshot"},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return recrc(b) }, "bad magic"},
		{"flipped bit", func(b []byte) []byte { b[9] ^= 1; return b }, "checksum"},
		{"unknown flags", func(b []byte) []byte { b[20] |= 4; return recrc(b) }, "unknown flags"},
		{"ledger flag without section", func(b []byte) []byte { b[20] |= 2; return recrc(b) }, "ledger"},
		{"zero shards", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[16:], 0)
			return recrc(b)
		}, "shards"},
		{"hostile shard count", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[16:], 1<<15)
			return recrc(b)
		}, "shard sections need"},
		{"truncated", func(b []byte) []byte { return recrc(b[:len(b)-8]) }, "shard"},
		{"trailing bytes", func(b []byte) []byte {
			return recrc(append(b[:len(b)-4], 0, 0, 0, 0, 0, 0, 0, 0))
		}, "trailing"},
		{"hostile tally length", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[headerBytes:], 1<<27)
			return recrc(b)
		}, "counts need"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mut(append([]byte(nil), enc...))
			if _, err := Decode(b); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

func ledgerSample() *Snapshot {
	s := sample()
	s.HasLedger = true
	s.Ledger = []LedgerEntry{
		{Leaf: "leaf-a", Seq: 17, Round: 6, Reports: 1200, Dups: 3},
		{Leaf: "leaf-b", Seq: 9, Round: 7, Reports: 801, Dups: 0},
	}
	return s
}

func TestSnapshotLedgerRoundTrip(t *testing.T) {
	s := ledgerSample()
	dec, err := Decode(reencode(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if !dec.HasLedger || len(dec.Ledger) != len(s.Ledger) {
		t.Fatalf("ledger lost: HasLedger=%v entries=%d", dec.HasLedger, len(dec.Ledger))
	}
	for i, want := range s.Ledger {
		if dec.Ledger[i] != want {
			t.Fatalf("ledger[%d] = %+v, want %+v", i, dec.Ledger[i], want)
		}
	}
}

// TestSnapshotEmptyLedgerRoundTrips pins that HasLedger survives an empty
// ledger — a root snapshotting before its first merge must restore as a
// root, and the flag must stay distinguishable from a plain leaf image.
func TestSnapshotEmptyLedgerRoundTrips(t *testing.T) {
	s := &Snapshot{SpecHash: 1, HasLedger: true, Shards: []Shard{{Tally: longitudinal.Tally{Counts: []int64{0}}}}}
	dec, err := Decode(reencode(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if !dec.HasLedger {
		t.Fatal("HasLedger lost on an empty ledger")
	}
}

func TestSnapshotLedgerEncodeRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Snapshot)
		want string
	}{
		{"ledger without flag", func(s *Snapshot) { s.HasLedger = false }, "without HasLedger"},
		{"empty leaf name", func(s *Snapshot) { s.Ledger[0].Leaf = "" }, "leaf-name length"},
		{"oversize leaf name", func(s *Snapshot) { s.Ledger[0].Leaf = strings.Repeat("x", 256) }, "leaf-name length"},
		{"unsorted leaves", func(s *Snapshot) { s.Ledger[1].Leaf = "leaf-a" }, "strictly ascending"},
		{"negative entry round", func(s *Snapshot) { s.Ledger[0].Round = -1 }, "round"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := ledgerSample()
			tc.mut(s)
			if _, err := Append(nil, s); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

func TestSnapshotLedgerDecodeRejections(t *testing.T) {
	enc, err := Append(nil, ledgerSample())
	if err != nil {
		t.Fatal(err)
	}
	recrc := func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
		return b
	}
	// The ledger section starts right after the shard sections; its entry
	// count is the first u32 there.
	countOff := len(enc) - crcBytes
	for i := len(ledgerSample().Ledger) - 1; i >= 0; i-- {
		e := ledgerSample().Ledger[i]
		countOff -= ledgerFixedBytes + len(e.Leaf)
	}
	countOff -= 4
	cases := []struct {
		name string
		mut  func([]byte) []byte
		want string
	}{
		{"hostile entry count", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[countOff:], 1<<30)
			return recrc(b)
		}, "entries need"},
		{"truncated entry", func(b []byte) []byte { return recrc(b[:len(b)-6]) }, "ledger"},
		{"empty entry name", func(b []byte) []byte { b[countOff+4] = 0; return recrc(b) }, "leaf name"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mut(append([]byte(nil), enc...))
			if _, err := Decode(b); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

func TestSnapshotWriteRead(t *testing.T) {
	var buf bytes.Buffer
	s := sample()
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	dec, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dec.SpecHash != s.SpecHash || dec.Round != s.Round {
		t.Fatalf("Read: %+v", dec)
	}
}
