package netserver

// Fuzz targets for the network-facing parsers: the TCP frame reader, the
// merge-frame path and the HTTP /v1/reports body (one LCB1 batch). All
// consume attacker-controlled bytes before any authentication, so they
// must never panic and never allocate anything sized by an unvalidated
// length. FuzzColumnarBatch and FuzzTallyWire in internal/longitudinal
// cover the LCB1 decoder and the talliers on their own.
//
// CI runs these for a few seconds per push (the fuzz-smoke job); longer
// local runs: go test -fuzz FuzzFrameStream ./internal/netserver

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"github.com/loloha-ldp/loloha/internal/core"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/persist"
	"github.com/loloha-ldp/loloha/internal/server"
)

func FuzzFrameStream(f *testing.F) {
	// Seeds: a well-formed session (enroll, columnar batch, flush), then
	// structured garbage around each validation edge.
	proto, err := core.NewBinary(16, 2, 1)
	if err != nil {
		f.Fatal(err)
	}
	cl := proto.NewClient(1)
	session, err := AppendEnrollFrame(nil, 1, cl.WireRegistration())
	if err != nil {
		f.Fatal(err)
	}
	stride, _ := longitudinal.ColumnarStrideOf(proto)
	w, err := longitudinal.NewColumnarWriter(longitudinal.SpecHashOf(proto), stride)
	if err != nil {
		f.Fatal(err)
	}
	if err := w.Add(1, cl.AppendReport(nil, 3)); err != nil {
		f.Fatal(err)
	}
	session = AppendColumnarFrame(session, w.AppendTo(nil))
	session = AppendFlushFrame(session)
	f.Add(session)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, FrameColumnar}) // oversize length
	f.Add([]byte{4, 0, 0, 0, FrameEnroll, 1, 2, 3, 4})   // short enroll body
	f.Add([]byte{0, 0, 0, 0, 0x7e})                      // unknown type
	f.Add(append([]byte{9, 0, 0, 0, FrameColumnar}, make([]byte, 9)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		stream, err := server.NewStream(proto, server.WithShards(1))
		if err != nil {
			t.Fatal(err)
		}
		defer stream.Close()
		srv, err := New(Config{Stream: stream, MaxFrameBytes: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		// Drive the connection loop directly over the fuzz bytes; acks go
		// nowhere. serve must terminate (EOF at the latest) without panic.
		c := &tcpConn{
			srv: srv,
			br:  bufio.NewReader(bytes.NewReader(data)),
			bw:  bufio.NewWriter(io.Discard),
		}
		c.serve()
	})
}

// FuzzMergeFrame drives a collector root's connection loop with an
// arbitrary merge-frame body. Like the other frame types the body is
// attacker-controlled bytes reaching persist.ParseEnvelopeHeader,
// persist.DecodeEnvelope and MergeEnvelope before any authentication:
// serve must terminate without panicking, and the round must account for
// exactly what the root acknowledged — the reports of an applied
// envelope's ack, and nothing at all for a rejected body, which drops the
// connection unacknowledged.
func FuzzMergeFrame(f *testing.F) {
	proto, err := core.NewBinary(16, 2, 1)
	if err != nil {
		f.Fatal(err)
	}
	other, err := core.NewBinary(32, 2, 1)
	if err != nil {
		f.Fatal(err)
	}
	// Seeds: an envelope around a matching tally-only snapshot (the leaf
	// wire form), one around a full-state snapshot with a user table, a
	// mismatched-spec envelope, a truncated envelope, an envelope around
	// garbage, the raw LSS1 image the root refuses, structured garbage,
	// and an envelope whose second shard section is one count short.
	leaf, err := server.NewStream(proto, server.WithShards(1))
	if err != nil {
		f.Fatal(err)
	}
	cl := proto.NewClient(3)
	if err := leaf.Enroll(3, cl.WireRegistration()); err != nil {
		f.Fatal(err)
	}
	if err := leaf.Ingest(3, cl.AppendReport(nil, 5)); err != nil {
		f.Fatal(err)
	}
	var full bytes.Buffer
	if err := leaf.Snapshot(&full); err != nil {
		f.Fatal(err)
	}
	_, snap, err := leaf.CloseRoundExport()
	if err != nil {
		f.Fatal(err)
	}
	tallyOnly, err := persist.Append(nil, snap)
	if err != nil {
		f.Fatal(err)
	}
	leaf.Close()
	otherLeaf, err := server.NewStream(other, server.WithShards(1))
	if err != nil {
		f.Fatal(err)
	}
	_, otherSnap, err := otherLeaf.CloseRoundExport()
	if err != nil {
		f.Fatal(err)
	}
	otherLeaf.Close()
	envelope := func(seq uint64, image []byte) []byte {
		env, err := persist.AppendEnvelopeImage(nil, "leaf", 0, seq, image)
		if err != nil {
			f.Fatal(err)
		}
		return env
	}
	mismatched, err := persist.AppendEnvelope(nil, &persist.Envelope{Leaf: "leaf", Seq: 3, Snap: otherSnap})
	if err != nil {
		f.Fatal(err)
	}
	good := envelope(1, tallyOnly)
	f.Add(good)
	f.Add(envelope(2, full.Bytes()))
	f.Add(mismatched)
	f.Add(good[:len(good)/2])
	f.Add(envelope(4, []byte("LSS1 but not really")))
	f.Add(tallyOnly)
	f.Add([]byte{})
	uneven := *snap
	uneven.Shards = []persist.Shard{snap.Shards[0], snap.Shards[0]}
	uneven.Shards[1].Counts = uneven.Shards[1].Counts[1:]
	unevenEnv, err := persist.AppendEnvelope(nil, &persist.Envelope{Leaf: "leaf", Seq: 5, Snap: &uneven})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(unevenEnv)

	f.Fuzz(func(t *testing.T, data []byte) {
		stream, err := server.NewStream(proto, server.WithShards(1))
		if err != nil {
			t.Fatal(err)
		}
		defer stream.Close()
		srv, err := New(Config{Stream: stream, AcceptMerges: true})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		wire := AppendMergeFrame(nil, data)
		wire = AppendFlushFrame(wire)
		var acks bytes.Buffer
		c := &tcpConn{
			srv: srv,
			br:  bufio.NewReader(bytes.NewReader(wire)),
			bw:  bufio.NewWriter(&acks),
		}
		c.serve()
		// The stream is fresh, so no envelope can be a duplicate: either
		// the root acknowledged an apply, or it wrote no ack at all.
		ack, err := ReadMergeAck(&acks)
		applied := err == nil && ack.Status == MergeApplied
		if !applied {
			if p := stream.Pending(); p != 0 {
				t.Fatalf("unacknowledged merge body left %d reports pending", p)
			}
		}
		res := stream.CloseRound()
		switch {
		case applied && uint64(res.Reports) != ack.Merged:
			t.Fatalf("root acked %d merged reports, round closed with %d", ack.Merged, res.Reports)
		case !applied && res.Reports != 0:
			t.Fatalf("unacknowledged merge body closed a round of %d reports", res.Reports)
		}
	})
}

// FuzzBatchBody posts arbitrary bytes as a POST /v1/reports body. The
// handler must answer 200, 400 or 413 (never a panic or a 5xx); a 400 or
// 413 must tally nothing; a 200 must account for every report of the batch as
// received or rejected, and only for a body DecodeColumnar accepts.
func FuzzBatchBody(f *testing.F) {
	proto, err := core.NewBinary(16, 2, 1)
	if err != nil {
		f.Fatal(err)
	}
	stride, _ := longitudinal.ColumnarStrideOf(proto)
	hash := longitudinal.SpecHashOf(proto)
	cl := proto.NewClient(1)

	// Seeds: an empty body, a warm batch, a cold enroll-and-report batch,
	// a truncated header, trailing garbage, and a batch whose declared
	// count runs far past the body.
	warm, err := longitudinal.NewColumnarWriter(hash, stride)
	if err != nil {
		f.Fatal(err)
	}
	if err := warm.Add(1, cl.AppendReport(nil, 3)); err != nil {
		f.Fatal(err)
	}
	cold, err := longitudinal.NewColumnarWriter(hash, stride)
	if err != nil {
		f.Fatal(err)
	}
	if err := cold.WithRegistrations(0); err != nil {
		f.Fatal(err)
	}
	if err := cold.AddWithRegistration(2, cl.AppendReport(nil, 5), cl.WireRegistration()); err != nil {
		f.Fatal(err)
	}
	warmBody := warm.AppendTo(nil)
	hostile := slices.Clone(warmBody)
	for i := 16; i < 20 && i < len(hostile); i++ {
		hostile[i] = 0xff
	}
	f.Add([]byte{})
	f.Add(warmBody)
	f.Add(cold.AppendTo(nil))
	f.Add(warmBody[:5])
	f.Add(append(slices.Clone(warmBody), 0xff))
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, data []byte) {
		stream, err := server.NewStream(proto, server.WithShards(1))
		if err != nil {
			t.Fatal(err)
		}
		defer stream.Close()
		if err := stream.Enroll(1, cl.WireRegistration()); err != nil {
			t.Fatal(err)
		}
		srv, err := New(Config{Stream: stream, MaxBatchBytes: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()

		req := httptest.NewRequest(http.MethodPost, "/v1/reports", bytes.NewReader(data))
		req.Header.Set("Content-Type", ContentTypeColumnar)
		rec := httptest.NewRecorder()
		srv.handleReports(rec, req)

		var decoded longitudinal.ColumnarBatch
		decodeErr := longitudinal.DecodeColumnar(data, &decoded)
		switch rec.Code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			if got := srv.httpReports.Load() + srv.httpRejected.Load(); got != 0 {
				t.Fatalf("400 answer still counted %d reports", got)
			}
		case http.StatusOK:
			if decodeErr != nil {
				t.Fatalf("200 for a body DecodeColumnar rejects: %v", decodeErr)
			}
			var resp struct{ Received, Rejected int }
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("response %q: %v", rec.Body.String(), err)
			}
			if resp.Received+resp.Rejected != decoded.Count() {
				t.Fatalf("received %d + rejected %d, batch holds %d reports",
					resp.Received, resp.Rejected, decoded.Count())
			}
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		stream.CloseRound()
	})
}
