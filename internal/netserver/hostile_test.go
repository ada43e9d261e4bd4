package netserver

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/loloha-ldp/loloha/internal/longitudinal"
)

// TestHostileEnrollmentRejected pins enrollment validation on every route
// a registration can take — Stream.Enroll, JSON /v1/enroll, the TCP enroll
// frame and a columnar registration column. A dBitFlipPM registration
// with a bucket index past b, or with fewer than d buckets, used to be
// stored; the user's first report then panicked inside the tally while
// holding the shard lock, wedging every later report on that shard (and,
// over TCP, crashing the daemon). Each hostile registration must be
// rejected and counted, and an honest report on the same shard must still
// land.
func TestHostileEnrollmentRejected(t *testing.T) {
	proto, err := longitudinal.ProtocolSpec{Family: "dBitFlipPM", K: 24, B: 8, D: 3, EpsInf: 2}.Build()
	if err != nil {
		t.Fatal(err)
	}
	hostile := []longitudinal.Registration{
		{Sampled: []int{0, 1, 8}}, // bucket index b
		{Sampled: []int{0, 1}},    // d-1 buckets
	}
	stride, _ := longitudinal.ColumnarStrideOf(proto)
	specHash := longitudinal.SpecHashOf(proto)
	cell := []byte{0x07} // all d = 3 sampled bits set
	if stride != len(cell) {
		t.Fatalf("stride %d, want %d", stride, len(cell))
	}
	honestReg := longitudinal.Registration{Sampled: []int{2, 4, 6}}
	honest := 0 // honest user IDs handed out so far; each reports once

	// One shard, so every hostile user shares a shard with the honest ones.
	stream := newTestStreamShards(t, proto, 1)
	srv := newTestServer(t, stream, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	conn := dialTCPServer(t, srv)

	// ingestHonest enrolls a fresh honest user and reports through the
	// stream; it must land even after the hostile input.
	ingestHonest := func(route string) {
		t.Helper()
		u := 1000 + honest
		honest++
		if err := stream.Enroll(u, honestReg); err != nil {
			t.Fatalf("%s: honest enrollment: %v", route, err)
		}
		if err := stream.Ingest(u, cell); err != nil {
			t.Fatalf("%s: honest report: %v", route, err)
		}
	}
	// reportHostile sends a report for a hostile user; with the user never
	// enrolled it is an ordinary rejection, not a tally.
	reportHostile := func(route string, u int) {
		t.Helper()
		if err := stream.IngestBatch([]int{u}, [][]byte{cell}); err == nil {
			t.Errorf("%s: report for hostile user %d tallied", route, u)
		}
	}

	t.Run("Stream.Enroll", func(t *testing.T) {
		for i, reg := range hostile {
			u := 10 + i
			if err := stream.Enroll(u, reg); err == nil {
				t.Errorf("hostile registration %v accepted", reg.Sampled)
			}
			reportHostile("Stream.Enroll", u)
			ingestHonest("Stream.Enroll")
		}
	})

	t.Run("JSON /v1/enroll", func(t *testing.T) {
		for i, reg := range hostile {
			u := 20 + i
			resp := postJSON(t, ts.URL+"/v1/enroll", enrollRequest{UserID: u, Sampled: reg.Sampled})
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("hostile registration %v: status %d, want 400", reg.Sampled, resp.StatusCode)
			}
			reportHostile("JSON", u)
			ingestHonest("JSON")
		}
		resp, err := http.Get(ts.URL + "/v1/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st statusJSON
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if st.HTTP.Rejected != uint64(len(hostile)) {
			t.Errorf("status http.rejected = %d, want %d", st.HTTP.Rejected, len(hostile))
		}
	})

	t.Run("TCP enroll frame", func(t *testing.T) {
		var frames []byte
		for i, reg := range hostile {
			var err error
			if frames, err = AppendEnrollFrame(frames, 30+i, reg); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := conn.Write(frames); err != nil {
			t.Fatal(err)
		}
		if ack := flushAndAck(t, conn); ack.Enrolled != 0 || ack.EnrollRejected != uint64(len(hostile)) {
			t.Errorf("ack = %+v, want %d rejected enrollments", ack, len(hostile))
		}
		for i := range hostile {
			reportHostile("TCP", 30+i)
		}
		ingestHonest("TCP")
	})

	t.Run("columnar registration column", func(t *testing.T) {
		// Each batch enrolls one hostile user and one honest user through
		// its registration columns; only the honest row may land.
		for i, reg := range hostile {
			w, err := longitudinal.NewColumnarWriter(specHash, stride)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.WithRegistrations(len(reg.Sampled)); err != nil {
				t.Fatal(err)
			}
			if err := w.AddWithRegistration(40+i, cell, reg); err != nil {
				t.Fatal(err)
			}
			if len(reg.Sampled) == len(honestReg.Sampled) {
				if err := w.AddWithRegistration(2000+i, cell, honestReg); err != nil {
					t.Fatal(err)
				}
				honest++
			}
			before := flushAndAck(t, conn)
			if _, err := conn.Write(AppendColumnarFrame(nil, w.AppendTo(nil))); err != nil {
				t.Fatal(err)
			}
			ack := flushAndAck(t, conn)
			if got := ack.ReportRejected - before.ReportRejected; got != 1 {
				t.Errorf("hostile row %v: %d rejected reports, want exactly 1", reg.Sampled, got)
			}
			reportHostile("columnar", 40+i)
			ingestHonest("columnar")
		}
	})

	res := stream.CloseRound()
	if res.Reports != honest {
		t.Fatalf("round tallied %d reports, want the %d honest ones", res.Reports, honest)
	}
	// The HTTP batch path is the last route a wedged shard would block.
	w, err := longitudinal.NewColumnarWriter(specHash, stride)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add(1000, cell); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/reports", ContentTypeColumnar, bytes.NewReader(w.AppendTo(nil)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || stream.Pending() != 1 {
		t.Fatalf("honest HTTP batch after hostile input: status %d, pending %d", resp.StatusCode, stream.Pending())
	}
}
