package netserver

// Exactly-once delivery tests: per-envelope acks survive redials (the
// cumulative-ack counter reset is pinned here), the leaf outbox spools a
// round the parent never confirmed and replays it at boot, a restarted
// root deduplicates re-shipped envelopes through its restored ledger, and
// a root under a round deadline publishes partial rounds without losing
// the late leaf's reports.

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/persist"
	"github.com/loloha-ldp/loloha/internal/server"
)

// exportEnvelope closes s's round and wraps the exported tallies in an
// envelope with an explicit sequence number — the test-side stand-in for
// the outbox's numbering.
func exportEnvelope(t *testing.T, s *server.Stream, leaf string, seq uint64) ([]byte, server.RoundResult) {
	t.Helper()
	res, snap, err := s.CloseRoundExport()
	if err != nil {
		t.Fatal(err)
	}
	env, err := persist.AppendEnvelope(nil, &persist.Envelope{Leaf: leaf, Round: res.Round, Seq: seq, Snap: snap})
	if err != nil {
		t.Fatal(err)
	}
	return env, res
}

// ingestRound feeds one deterministic report per client into each stream.
func ingestRound(t *testing.T, proto longitudinal.Protocol, clients []longitudinal.Client,
	round int, streams ...*server.Stream) {
	t.Helper()
	for u, cl := range clients {
		payload := cl.AppendReport(nil, (u*7+round)%proto.K())
		for _, s := range streams {
			if err := s.Ingest(u, payload); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// getStatus fetches and decodes /v1/status from a server's handler.
func getStatus(t *testing.T, srv *Server) statusJSON {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statusJSON
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestMergeClientRedialExactlyOnce pins the bug the per-envelope ack
// replaced: the old cumulative ack tracked "reports confirmed so far"
// per connection, so a redial reset the baseline and the next Send
// reported a garbage delta. With envelope acks, a Ship after Close
// returns exactly the shipped envelope's count, and re-shipping an old
// envelope across the redial is a duplicate, not a double count.
func TestMergeClientRedialExactlyOnce(t *testing.T) {
	const n = 24
	proto, err := parityFamilies[0].build()
	if err != nil {
		t.Fatal(err)
	}
	ref := newTestStream(t, proto)
	rootStream := newTestStream(t, proto)
	rootSrv := newTestServer(t, rootStream, Config{AcceptMerges: true})
	addr := serveTCPAddr(t, rootSrv)
	leaf := newTestStream(t, proto)
	clients := treeClients(t, proto, ref, []*server.Stream{leaf}, n)

	up, err := DialMerge(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()

	ingestRound(t, proto, clients, 0, ref, leaf)
	env0, _ := exportEnvelope(t, leaf, "leaf-a", 1)
	merged, dup, err := up.Ship(env0)
	if err != nil || dup || merged != n {
		t.Fatalf("Ship(env0) = %d, dup=%v, err=%v; want %d fresh reports", merged, dup, err, n)
	}
	refRes0 := ref.CloseRound()
	rootRes0 := rootStream.CloseRound()

	// The redial: every connection-lifetime counter a cumulative ack
	// would have depended on is gone.
	if err := up.Close(); err != nil {
		t.Fatal(err)
	}

	ingestRound(t, proto, clients, 1, ref, leaf)
	env1, _ := exportEnvelope(t, leaf, "leaf-a", 2)
	merged, dup, err = up.Ship(env1)
	if err != nil || dup || merged != n {
		t.Fatalf("Ship(env1) after redial = %d, dup=%v, err=%v; want exactly %d", merged, dup, err, n)
	}
	// A retry of round 0's envelope lands on the fresh connection:
	// duplicate, zero reapplied.
	merged, dup, err = up.Ship(env0)
	if err != nil || !dup || merged != 0 {
		t.Fatalf("re-Ship(env0) = %d, dup=%v, err=%v; want a duplicate ack", merged, dup, err)
	}
	refRes1 := ref.CloseRound()
	rootRes1 := rootStream.CloseRound()

	for round, pair := range [][2]server.RoundResult{{rootRes0, refRes0}, {rootRes1, refRes1}} {
		got, want := pair[0], pair[1]
		if got.Reports != want.Reports || !sameFloats(got.Raw, want.Raw) || !sameFloats(got.Estimates, want.Estimates) {
			t.Fatalf("round %d: root diverges from single-node reference after redial", round)
		}
	}
	if got := rootSrv.mergeDup.Load(); got != 1 {
		t.Fatalf("root deduplicated %d envelopes, want 1", got)
	}
	if got := rootSrv.mergeReports.Load(); got != 2*n {
		t.Fatalf("root merged %d reports, want %d", got, 2*n)
	}
}

// downSender is an upstream whose parent is unreachable: every Ship
// fails, so delivery stays unknown and envelopes stay spooled.
type downSender struct{}

func (downSender) Ship([]byte) (int, bool, error) { return 0, false, errors.New("parent down") }
func (downSender) Addr() string                   { return "down:0" }
func (downSender) Close() error                   { return nil }

// TestLeafOutboxSpoolsAndReplaysAtBoot drives the durable half: a round
// closed while the parent is down is spooled (and surfaced in
// /v1/status), survives the leaf engine stopping, and a new engine over
// the same outbox directory replays it at boot — the root sees every
// report exactly once, in round order.
func TestLeafOutboxSpoolsAndReplaysAtBoot(t *testing.T) {
	const n = 16
	proto, err := parityFamilies[0].build()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ref := newTestStream(t, proto)
	leafStream := newTestStream(t, proto)
	clients := treeClients(t, proto, ref, []*server.Stream{leafStream}, n)

	leaf1 := newTestServer(t, leafStream, Config{
		Upstream:     downSender{},
		LeafID:       "leaf-a",
		OutboxDir:    dir,
		ShipRetryMin: time.Millisecond,
		ShipRetryMax: 4 * time.Millisecond,
	})
	ingestRound(t, proto, clients, 0, ref, leafStream)
	if _, err := leaf1.closeRound(); err == nil {
		t.Fatal("closeRound with the parent down reported success")
	}
	st := getStatus(t, leaf1)
	if st.Merge == nil || st.Merge.Unshipped != 1 || st.Merge.OldestUnshippedRound != 0 {
		t.Fatalf("leaf status = %+v, want 1 unshipped envelope from round 0", st.Merge)
	}
	// The background shipper is retrying against the dead parent.
	deadline := time.Now().Add(5 * time.Second)
	for leaf1.shipRetries.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background shipper never retried the spooled envelope")
		}
		time.Sleep(time.Millisecond)
	}
	leaf1.Close()

	// The leaf restarts with a reachable parent: New's boot replay must
	// deliver the spooled round without any new round closing.
	rootStream := newTestStream(t, proto)
	rootSrv := newTestServer(t, rootStream, Config{AcceptMerges: true})
	up, err := DialMerge(serveTCPAddr(t, rootSrv), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	leaf2 := newTestServer(t, leafStream, Config{
		Upstream:     up,
		LeafID:       "leaf-a",
		OutboxDir:    dir,
		ShipRetryMin: time.Millisecond,
		ShipRetryMax: 4 * time.Millisecond,
	})
	if err := leaf2.FlushOutbox(10 * time.Second); err != nil {
		t.Fatalf("boot replay never drained the outbox: %v", err)
	}
	if got := rootSrv.mergeReports.Load(); got != n {
		t.Fatalf("root merged %d reports after replay, want %d", got, n)
	}
	refRes := ref.CloseRound()
	rootRes := rootStream.CloseRound()
	if rootRes.Reports != refRes.Reports || !sameFloats(rootRes.Raw, refRes.Raw) {
		t.Fatal("replayed round diverges from single-node reference")
	}

	// The durable SEQ survived the restart too: the next round's envelope
	// continues the sequence, which the root's ledger records.
	ingestRound(t, proto, clients, 1, ref, leafStream)
	if _, err := leaf2.closeRound(); err != nil {
		t.Fatalf("round 1 close: %v", err)
	}
	ledger := rootStream.Ledger()
	if len(ledger) != 1 || ledger[0].Leaf != "leaf-a" || ledger[0].Seq != 2 {
		t.Fatalf("root ledger = %+v, want leaf-a at seq 2", ledger)
	}
	if st := getStatus(t, leaf2); st.Merge.Unshipped != 0 || st.Merge.OldestUnshippedRound != -1 {
		t.Fatalf("leaf status after replay = %+v, want an empty outbox", st.Merge)
	}
}

// TestRootRestartDedupOverWire re-ships an already-applied envelope to a
// root restored from its snapshot: the ledger rides the snapshot (the
// same image as the tallies, so they can never disagree), and the
// restart does not reopen the dedup window.
func TestRootRestartDedupOverWire(t *testing.T) {
	const n = 16
	proto, err := parityFamilies[0].build()
	if err != nil {
		t.Fatal(err)
	}
	leaf := newTestStream(t, proto)
	clients := make([]longitudinal.Client, n)
	for u := range clients {
		cl := proto.NewClient(uint64(u))
		clients[u] = cl
		if err := leaf.Enroll(u, cl.WireRegistration()); err != nil {
			t.Fatal(err)
		}
	}
	rootStream1 := newTestStream(t, proto)
	rootSrv1 := newTestServer(t, rootStream1, Config{AcceptMerges: true})
	up1, err := DialMerge(serveTCPAddr(t, rootSrv1), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer up1.Close()

	ingestRound(t, proto, clients, 0, leaf)
	env0, _ := exportEnvelope(t, leaf, "leaf-a", 1)
	if _, dup, err := up1.Ship(env0); err != nil || dup {
		t.Fatalf("Ship(env0): dup=%v, err=%v", dup, err)
	}

	// Root restart: snapshot mid-round (envelope applied, ack possibly
	// lost on its way back), restore into a fresh stream and engine — the
	// lolohad shutdown/startup sequence.
	var image bytes.Buffer
	if err := rootStream1.Snapshot(&image); err != nil {
		t.Fatal(err)
	}
	rootSrv1.Close()
	rootStream2, err := server.RestoreStream(&image, proto, server.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rootStream2.Close)
	rootSrv2 := newTestServer(t, rootStream2, Config{AcceptMerges: true})
	up2, err := DialMerge(serveTCPAddr(t, rootSrv2), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer up2.Close()

	// The leaf, never having seen the ack, retries round 0 against the
	// restarted root: duplicate, not a double count.
	if merged, dup, err := up2.Ship(env0); err != nil || !dup || merged != 0 {
		t.Fatalf("re-Ship(env0) after root restart = %d, dup=%v, err=%v; want duplicate", merged, dup, err)
	}
	ingestRound(t, proto, clients, 1, leaf)
	env1, _ := exportEnvelope(t, leaf, "leaf-a", 2)
	if merged, dup, err := up2.Ship(env1); err != nil || dup || merged != n {
		t.Fatalf("Ship(env1) = %d, dup=%v, err=%v; want %d fresh", merged, dup, err, n)
	}

	// The restored open round holds exactly both rounds' tallies: n would
	// mean the fresh envelope was dropped, 3n a double-applied retry.
	if got := rootStream2.CloseRound().Reports; got != 2*n {
		t.Fatalf("restored root's round carries %d reports, want exactly %d", got, 2*n)
	}
	ledger := rootStream2.Ledger()
	if len(ledger) != 1 || ledger[0].Seq != 2 || ledger[0].Dups != 1 {
		t.Fatalf("restored ledger = %+v, want seq 2 with 1 recorded duplicate", ledger)
	}
}

// TestRootDeadlinePartialRound exercises graceful degradation: with a
// round deadline and an expected leaf count, a dead leaf delays the round
// by at most the deadline, the round is marked partial with per-leaf
// attribution, and the late envelope lands in the next round — absorbed,
// never lost.
func TestRootDeadlinePartialRound(t *testing.T) {
	const n = 16 // per leaf
	proto, err := parityFamilies[0].build()
	if err != nil {
		t.Fatal(err)
	}
	rootStream := newTestStream(t, proto)
	sub := rootStream.Subscribe()
	rootSrv := newTestServer(t, rootStream, Config{
		AcceptMerges:  true,
		RoundDeadline: 60 * time.Millisecond,
		Quorum:        1,
		ExpectLeaves:  2,
	})
	up, err := DialMerge(serveTCPAddr(t, rootSrv), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()

	leafA := newTestStream(t, proto)
	leafB := newTestStream(t, proto)
	clients := make([]longitudinal.Client, 2*n)
	for u := range clients {
		cl := proto.NewClient(uint64(u))
		clients[u] = cl
		target := leafA
		if u >= n {
			target = leafB
		}
		if err := target.Enroll(u, cl.WireRegistration()); err != nil {
			t.Fatal(err)
		}
	}
	report := func(s *server.Stream, lo, hi, round int) {
		for u := lo; u < hi; u++ {
			if err := s.Ingest(u, clients[u].AppendReport(nil, (u+round)%proto.K())); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitRound := func(within time.Duration) server.RoundResult {
		select {
		case res := <-sub:
			return res
		case <-time.After(within):
			t.Fatal("root never published a round")
			panic("unreachable")
		}
	}

	// Round 0: leaf B is dead. Only A's envelope arrives; the deadline
	// closes a partial round with A's reports.
	report(leafA, 0, n, 0)
	report(leafB, n, 2*n, 0) // B collects but never ships
	envA0, _ := exportEnvelope(t, leafA, "leaf-a", 1)
	if _, _, err := up.Ship(envA0); err != nil {
		t.Fatal(err)
	}
	res0 := waitRound(5 * time.Second)
	if res0.Reports != n {
		t.Fatalf("partial round published %d reports, want leaf A's %d", res0.Reports, n)
	}
	if got := rootSrv.partialRound.Load(); got != 1 {
		t.Fatalf("partial-round counter = %d, want 1", got)
	}

	// B comes back and ships its round-0 tallies late: they are absorbed
	// into the open round, and the arrival re-arms attribution.
	envB0, _ := exportEnvelope(t, leafB, "leaf-b", 1)
	if merged, dup, err := up.Ship(envB0); err != nil || dup || merged != n {
		t.Fatalf("late Ship(envB0) = %d, dup=%v, err=%v; want %d absorbed", merged, dup, err, n)
	}
	st := getStatus(t, rootSrv)
	if st.Merge == nil || st.Merge.Arrived != 1 || !st.Merge.Leaves["leaf-b"].InRound {
		t.Fatalf("root status after late arrival = %+v, want leaf-b attributed to the open round", st.Merge)
	}
	if st.Merge.Leaves["leaf-a"].InRound {
		t.Fatal("leaf-a attributed to the open round it is not part of")
	}

	// Round 1: A ships too — the second distinct arrival hits
	// ExpectLeaves and closes the round immediately, no deadline wait.
	report(leafA, 0, n, 1)
	envA1, _ := exportEnvelope(t, leafA, "leaf-a", 2)
	if _, _, err := up.Ship(envA1); err != nil {
		t.Fatal(err)
	}
	res1 := waitRound(5 * time.Second)
	if res1.Reports != 2*n {
		t.Fatalf("round 1 published %d reports, want %d (late B round 0 + A round 1)", res1.Reports, 2*n)
	}
	if got := rootSrv.partialRound.Load(); got != 1 {
		t.Fatalf("full round counted as partial: counter = %d, want still 1", got)
	}
}

// waitTrackedConns polls, for at most five seconds, until s tracks at
// least n live connections.
func waitTrackedConns(t *testing.T, s *Server, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; {
		s.mu.Lock()
		got := len(s.conns)
		s.mu.Unlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server tracks %d connections after 5s, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrainAbandonedShipRedelivered is the drain/restart corner: the
// root's Drain deadline abandons the leaf's merge connection before the
// envelope is consumed, so the ship fails with delivery unknown — and the
// envelope must be re-shipped from the outbox once a root is back,
// landing exactly once.
func TestDrainAbandonedShipRedelivered(t *testing.T) {
	const n = 12
	proto, err := parityFamilies[0].build()
	if err != nil {
		t.Fatal(err)
	}
	rootStream := newTestStream(t, proto)
	rootSrv1 := newTestServer(t, rootStream, Config{AcceptMerges: true})
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rootSrv1.ServeTCP(l1)
	addr := l1.Addr().String()

	up, err := DialMerge(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	leafStream := newTestStream(t, proto)
	leafSrv := newTestServer(t, leafStream, Config{
		Upstream:     up,
		LeafID:       "leaf-a",
		OutboxDir:    t.TempDir(),
		ShipRetryMin: time.Millisecond,
		ShipRetryMax: 10 * time.Millisecond,
	})
	for u := 0; u < n; u++ {
		cl := proto.NewClient(uint64(u))
		if err := leafStream.Enroll(u, cl.WireRegistration()); err != nil {
			t.Fatal(err)
		}
		if err := leafStream.Ingest(u, cl.AppendReport(nil, u%proto.K())); err != nil {
			t.Fatal(err)
		}
	}

	// Drain the root with an immediate deadline: the leaf's established
	// merge connection is abandoned unread, so the envelope written into
	// it is never acked. The root's accept loop tracks that connection
	// asynchronously, so wait for it first: a Drain that runs before
	// has no live connection to abandon.
	waitTrackedConns(t, rootSrv1, 1)
	if err := rootSrv1.Drain(time.Millisecond); err == nil {
		t.Fatal("Drain with a live idle connection met its deadline, want abandonment error")
	}
	if _, err := leafSrv.closeRound(); err == nil {
		t.Fatal("closeRound shipped through a drained root")
	}
	if got := rootSrv1.mergeFrames.Load(); got != 0 {
		t.Fatalf("drained root applied %d merge frames, want 0", got)
	}
	rootSrv1.Close()

	// Root restart on the same address; the leaf's background shipper
	// redials and redelivers the spooled envelope.
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	rootSrv2 := newTestServer(t, rootStream, Config{AcceptMerges: true})
	go rootSrv2.ServeTCP(l2)
	if err := leafSrv.FlushOutbox(10 * time.Second); err != nil {
		t.Fatalf("spooled envelope never redelivered: %v", err)
	}
	if got := rootSrv2.mergeReports.Load(); got != n {
		t.Fatalf("restarted root merged %d reports, want exactly %d", got, n)
	}
	if got := rootStream.CloseRound().Reports; got != n {
		t.Fatalf("root round carries %d reports, want %d — no loss, no double count", got, n)
	}
}
