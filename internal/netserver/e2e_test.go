package netserver

// End-to-end parity: the same payload bytes pushed through the daemon's
// HTTP and TCP fronts — in per-report framing and in columnar batches —
// must produce rounds bit-identical to ingesting them in-process. The
// daemon adds transport, never arithmetic; TestEndToEndParity pins that
// for every registered protocol family over both wires and both body
// formats.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/loloha-ldp/loloha/internal/core"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/server"
)

// parityFamilies is the compact matrix the benches use: a hash-seed
// family (BiLOLOHA) and a sampled-bucket family (dBitFlipPM) exercise
// both Registration fields. TestEndToEndParity goes wider and covers
// every registered family via paritySpec.
var parityFamilies = []struct {
	name  string
	build func() (longitudinal.Protocol, error)
}{
	{"BiLOLOHA", func() (longitudinal.Protocol, error) { return core.NewBinary(32, 2, 1) }},
	{"dBitFlipPM", func() (longitudinal.Protocol, error) { return longitudinal.NewDBitFlipPM(32, 8, 3, 2) }},
}

// paritySpec returns a feasible spec for every registered family so the
// end-to-end matrix automatically covers families added later.
func paritySpec(t *testing.T, family string, k int) longitudinal.ProtocolSpec {
	t.Helper()
	switch family {
	case "dBitFlipPM":
		return longitudinal.ProtocolSpec{Family: family, K: k, B: 8, D: 3, EpsInf: 2}
	case "1BitFlipPM", "bBitFlipPM":
		return longitudinal.ProtocolSpec{Family: family, K: k, B: 8, EpsInf: 2}
	case "LOLOHA":
		return longitudinal.ProtocolSpec{Family: family, K: k, G: 2, EpsInf: 2, Eps1: 1}
	case "RAPPOR", "L-OSUE", "L-OUE", "L-SOUE", "L-GRR", "BiLOLOHA", "OLOLOHA":
		return longitudinal.ProtocolSpec{Family: family, K: k, EpsInf: 2, Eps1: 1}
	default:
		t.Fatalf("no parity spec for registered family %q — add one", family)
		return longitudinal.ProtocolSpec{}
	}
}

func newTestStream(t testing.TB, proto longitudinal.Protocol) *server.Stream {
	return newTestStreamShards(t, proto, 4)
}

func newTestStreamShards(t testing.TB, proto longitudinal.Protocol, shards int) *server.Stream {
	t.Helper()
	s, err := server.NewStream(proto, server.WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func newTestServer(t testing.TB, stream *server.Stream, cfg Config) *Server {
	t.Helper()
	cfg.Stream = stream
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// dialTCPServer attaches a raw-TCP front to srv and dials it.
func dialTCPServer(t testing.TB, srv *Server) net.Conn {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeTCP(l)
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func postJSON(t testing.TB, url string, v any) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func flushAndAck(t testing.TB, conn net.Conn) Ack {
	t.Helper()
	if _, err := conn.Write(AppendFlushFrame(nil)); err != nil {
		t.Fatal(err)
	}
	ack, err := ReadAck(conn)
	if err != nil {
		t.Fatal(err)
	}
	return ack
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEndToEndParity(t *testing.T) {
	const k = 32
	for _, family := range longitudinal.Families() {
		spec := paritySpec(t, family, k)
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", family, shards), func(t *testing.T) {
				proto, err := spec.Build()
				if err != nil {
					t.Fatalf("Build(%+v): %v", spec, err)
				}
				stride, ok := longitudinal.ColumnarStrideOf(proto)
				if !ok {
					t.Fatalf("%s: protocol has no columnar stride", family)
				}
				specHash := longitudinal.SpecHashOf(proto)
				const n, rounds, httpChunk = 120, 3, 48

				ref := newTestStreamShards(t, proto, shards)
				httpStream := newTestStreamShards(t, proto, shards)
				tcpStream := newTestStreamShards(t, proto, shards)
				httpColStream := newTestStreamShards(t, proto, shards)
				tcpColStream := newTestStreamShards(t, proto, shards)

				httpSrv := newTestServer(t, httpStream, Config{})
				ts := httptest.NewServer(httpSrv.Handler())
				defer ts.Close()
				httpColSrv := newTestServer(t, httpColStream, Config{})
				tsCol := httptest.NewServer(httpColSrv.Handler())
				defer tsCol.Close()

				tcpSrv := newTestServer(t, tcpStream, Config{})
				conn := dialTCPServer(t, tcpSrv)
				tcpColSrv := newTestServer(t, tcpColStream, Config{})
				colConn := dialTCPServer(t, tcpColSrv)

				// Enroll the same users on the chunked legs: directly, over
				// JSON, and over enroll frames. The single-batch columnar
				// legs enroll through their round-0 registration columns
				// instead.
				clients := make([]longitudinal.Client, n)
				regs := make([]longitudinal.Registration, n)
				ids := make([]int, n)
				var frames []byte
				for u := range clients {
					cl := proto.NewClient(uint64(u))
					clients[u], ids[u] = cl, u
					reg := cl.WireRegistration()
					regs[u] = reg
					if err := ref.Enroll(u, reg); err != nil {
						t.Fatal(err)
					}
					resp := postJSON(t, ts.URL+"/v1/enroll",
						enrollRequest{UserID: u, HashSeed: reg.HashSeed, Sampled: reg.Sampled})
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("enroll user %d: status %d", u, resp.StatusCode)
					}
					resp.Body.Close()
					if frames, err = AppendEnrollFrame(frames, u, reg); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := conn.Write(frames); err != nil {
					t.Fatal(err)
				}
				if ack := flushAndAck(t, conn); ack.Enrolled != n || ack.EnrollRejected != 0 {
					t.Fatalf("tcp enrollment ack = %+v, want %d enrolled", ack, n)
				}

				for round := 0; round < rounds; round++ {
					// One payload per user per round, identical bytes on every
					// path; clients advance their memoized chain between rounds.
					payloads := make([][]byte, n)
					for u, cl := range clients {
						payloads[u] = cl.AppendReport(nil, (u+round)%proto.K())
					}

					if err := ref.IngestBatch(ids, payloads); err != nil {
						t.Fatal(err)
					}
					refRes := ref.CloseRound()

					// chunk encodes the steady-state columnar batch of users
					// [lo, hi).
					chunk := func(lo, hi int) []byte {
						w, err := longitudinal.NewColumnarWriter(specHash, stride)
						if err != nil {
							t.Fatal(err)
						}
						for u := lo; u < hi; u++ {
							if err := w.Add(ids[u], payloads[u]); err != nil {
								t.Fatal(err)
							}
						}
						return w.AppendTo(nil)
					}

					// HTTP: several batch bodies, then close over the API and
					// check the JSON response against the reference (Go's JSON
					// float encoding round-trips float64 exactly).
					for lo := 0; lo < n; lo += httpChunk {
						hi := min(lo+httpChunk, n)
						resp, err := http.Post(ts.URL+"/v1/reports", ContentTypeColumnar, bytes.NewReader(chunk(lo, hi)))
						if err != nil {
							t.Fatal(err)
						}
						var got struct {
							Received int    `json:"received"`
							Rejected int    `json:"rejected"`
							Error    string `json:"error"`
						}
						if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
							t.Fatal(err)
						}
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK || got.Received != hi-lo || got.Rejected != 0 {
							t.Fatalf("batch [%d,%d): status %d, response %+v", lo, hi, resp.StatusCode, got)
						}
					}
					resp := postJSON(t, ts.URL+"/v1/round/close", struct{}{})
					var httpRes roundJSON
					if err := json.NewDecoder(resp.Body).Decode(&httpRes); err != nil {
						t.Fatal(err)
					}
					resp.Body.Close()

					// TCP: one columnar frame per chunk, flush as the round
					// barrier.
					frames = frames[:0]
					for lo := 0; lo < n; lo += httpChunk {
						frames = AppendColumnarFrame(frames, chunk(lo, min(lo+httpChunk, n)))
					}
					if _, err := conn.Write(frames); err != nil {
						t.Fatal(err)
					}
					if ack := flushAndAck(t, conn); ack.Reports != uint64(n*(round+1)) || ack.ReportRejected != 0 {
						t.Fatalf("round %d tcp ack = %+v, want %d reports", round, ack, n*(round+1))
					}
					tcpRes := tcpStream.CloseRound()

					// Single-batch columnar legs: one packed batch per round,
					// identical payload bytes; round 0 carries the
					// registration columns that enroll the users on these
					// legs.
					w, err := longitudinal.NewColumnarWriter(specHash, stride)
					if err != nil {
						t.Fatal(err)
					}
					w.SetRound(uint32(round))
					if round == 0 {
						if err := w.WithRegistrations(len(regs[0].Sampled)); err != nil {
							t.Fatal(err)
						}
					}
					for u := range clients {
						if round == 0 {
							err = w.AddWithRegistration(ids[u], payloads[u], regs[u])
						} else {
							err = w.Add(ids[u], payloads[u])
						}
						if err != nil {
							t.Fatal(err)
						}
					}
					enc := w.AppendTo(nil)

					resp, err = http.Post(tsCol.URL+"/v1/reports", ContentTypeColumnar, bytes.NewReader(enc))
					if err != nil {
						t.Fatal(err)
					}
					var colGot struct {
						Received int    `json:"received"`
						Rejected int    `json:"rejected"`
						Error    string `json:"error"`
					}
					if err := json.NewDecoder(resp.Body).Decode(&colGot); err != nil {
						t.Fatal(err)
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK || colGot.Received != n || colGot.Rejected != 0 {
						t.Fatalf("round %d columnar POST: status %d, response %+v", round, resp.StatusCode, colGot)
					}
					httpColRes := httpColStream.CloseRound()

					if _, err := colConn.Write(AppendColumnarFrame(nil, enc)); err != nil {
						t.Fatal(err)
					}
					if ack := flushAndAck(t, colConn); ack.Reports != uint64(n*(round+1)) || ack.ReportRejected != 0 {
						t.Fatalf("round %d columnar tcp ack = %+v, want %d reports", round, ack, n*(round+1))
					}
					tcpColRes := tcpColStream.CloseRound()

					for name, res := range map[string]roundJSON{
						"http":          httpRes,
						"tcp":           toRoundJSON(tcpRes),
						"http-columnar": toRoundJSON(httpColRes),
						"tcp-columnar":  toRoundJSON(tcpColRes),
					} {
						if res.Round != round || refRes.Round != round {
							t.Fatalf("round indices diverge: ref %d, %s %d", refRes.Round, name, res.Round)
						}
						if res.Reports != n || refRes.Reports != n {
							t.Fatalf("round %d report counts diverge: ref %d, %s %d",
								round, refRes.Reports, name, res.Reports)
						}
						if !sameFloats(refRes.Raw, res.Raw) || !sameFloats(refRes.Estimates, res.Estimates) {
							t.Fatalf("round %d estimates diverge between ref and %s", round, name)
						}
					}
				}
			})
		}
	}
}

func TestSSERoundStream(t *testing.T) {
	proto, err := core.NewBinary(16, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	stream := newTestStream(t, proto)
	srv := newTestServer(t, stream, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	// The headers arrive before the hub registration; wait for the client
	// to land so the first round cannot race past it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if clients, _ := srv.hub.stats(); clients == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("SSE client never registered with the hub")
		}
		time.Sleep(time.Millisecond)
	}

	cl := proto.NewClient(1)
	if err := stream.Enroll(1, cl.WireRegistration()); err != nil {
		t.Fatal(err)
	}
	if err := stream.Ingest(1, cl.AppendReport(nil, 3)); err != nil {
		t.Fatal(err)
	}
	want := stream.CloseRound()

	br := bufio.NewReader(resp.Body)
	var event, data string
	for data == "" {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		line = strings.TrimSuffix(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
	}
	if event != "round" {
		t.Fatalf("SSE event = %q, want round", event)
	}
	var got roundJSON
	if err := json.Unmarshal([]byte(data), &got); err != nil {
		t.Fatalf("SSE data %q: %v", data, err)
	}
	if got.Round != want.Round || got.Reports != want.Reports || !sameFloats(got.Estimates, want.Estimates) {
		t.Fatalf("SSE round = %+v, want %+v", got, want)
	}
}

func TestStatusAndDashboard(t *testing.T) {
	proto, err := core.NewBinary(16, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	stream := newTestStream(t, proto)
	srv := newTestServer(t, stream, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cl := proto.NewClient(9)
	if err := stream.Enroll(9, cl.WireRegistration()); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var st statusJSON
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Protocol != proto.Name() {
		t.Fatalf("status protocol = %q, want %q", st.Protocol, proto.Name())
	}
	if st.Enrolled != 1 || st.Shards != stream.Shards() {
		t.Fatalf("status = %+v, want 1 enrolled over %d shards", st, stream.Shards())
	}
	if st.Spec == nil || st.Spec.Family == "" {
		t.Fatalf("status spec missing for %s", proto.Name())
	}

	resp, err = http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	var page bytes.Buffer
	if _, err := page.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(page.String(), "lolohad") {
		t.Fatalf("dashboard: status %d, body %.80q", resp.StatusCode, page.String())
	}

	// The round history endpoint 404s before any round exists and serves
	// the result after.
	resp, err = http.Get(ts.URL + "/v1/rounds/0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("rounds/0 before any round: status %d, want 404", resp.StatusCode)
	}
	if err := stream.Ingest(9, cl.AppendReport(nil, 2)); err != nil {
		t.Fatal(err)
	}
	want := stream.CloseRound()
	resp, err = http.Get(ts.URL + "/v1/rounds/0")
	if err != nil {
		t.Fatal(err)
	}
	var got roundJSON
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.Round != 0 || !sameFloats(got.Estimates, want.Estimates) {
		t.Fatalf("rounds/0 = %+v, want %+v", got, want)
	}
}

func TestHTTPRejections(t *testing.T) {
	proto, err := core.NewBinary(16, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	stream := newTestStream(t, proto)
	srv := newTestServer(t, stream, Config{MaxBatchBytes: 1 << 10})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// LCB1 is the only report encoding: any other content type is a 415,
	// whatever the body.
	for _, ct := range []string{"application/octet-stream", "", ContentTypeColumnar + "; v=2"} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/reports", bytes.NewReader([]byte{1, 2, 3}))
		if err != nil {
			t.Fatal(err)
		}
		if ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Fatalf("Content-Type %q: status %d, want 415", ct, resp.StatusCode)
		}
	}
	if got := stream.Pending(); got != 0 {
		t.Fatalf("%d reports tallied from rejected content types", got)
	}

	// Truncated columnar batch: framing error, whole batch rejected.
	resp, err := http.Post(ts.URL+"/v1/reports", ContentTypeColumnar, bytes.NewReader([]byte{1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated batch: status %d, want 400", resp.StatusCode)
	}

	// Oversize body: refused before reading.
	resp, err = http.Post(ts.URL+"/v1/reports", ContentTypeColumnar, bytes.NewReader(make([]byte, 2<<10)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize batch: status %d, want 413", resp.StatusCode)
	}

	// Unknown JSON fields and conflicting re-enrollment are caller bugs.
	resp = postJSON(t, ts.URL+"/v1/enroll", map[string]any{"user_id": 1, "bogus": true})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown enroll field: status %d, want 400", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/enroll", enrollRequest{UserID: 2, HashSeed: 7})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("enroll: status %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/enroll", enrollRequest{UserID: 2, HashSeed: 8})
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting re-enrollment: status %d, want 409", resp.StatusCode)
	}

	// A well-formed batch that references unknown users lands with
	// per-report rejections and a 200.
	stride, _ := longitudinal.ColumnarStrideOf(proto)
	w, err := longitudinal.NewColumnarWriter(longitudinal.SpecHashOf(proto), stride)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add(999, make([]byte, stride)); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/reports", ContentTypeColumnar, bytes.NewReader(w.AppendTo(nil)))
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Received int `json:"received"`
		Rejected int `json:"rejected"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || got.Rejected != 1 || got.Received != 0 {
		t.Fatalf("unknown-user batch: status %d, response %+v", resp.StatusCode, got)
	}
}

func TestTCPProtocolErrors(t *testing.T) {
	proto, err := core.NewBinary(16, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	stream := newTestStream(t, proto)
	srv := newTestServer(t, stream, Config{MaxFrameBytes: 1 << 10})

	// An oversize frame length is a protocol error: the connection dies
	// without reading the hostile body.
	conn := dialTCPServer(t, srv)
	var hdr [frameHeaderBytes]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = 0xff, 0xff, 0xff, 0x7f
	hdr[4] = FrameColumnar
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection survived an oversize frame")
	}

	// An unknown frame type likewise, and so does the reserved type 0x02
	// (the retired per-report frame), even with a once-valid body.
	for _, frame := range [][]byte{
		{0, 0, 0, 0, 0x7e},
		{9, 0, 0, 0, 0x02, 1, 0, 0, 0, 0, 0, 0, 0, 0},
	} {
		conn = dialTCPServer(t, srv)
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err == nil {
			t.Fatalf("connection survived frame type 0x%02x", frame[4])
		}
	}

	// Semantic rejections (short enroll body, unknown users) only bump
	// counters.
	conn = dialTCPServer(t, srv)
	stride, _ := longitudinal.ColumnarStrideOf(proto)
	w, err := longitudinal.NewColumnarWriter(longitudinal.SpecHashOf(proto), stride)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []int{424242, 424243} { // not enrolled
		if err := w.Add(u, make([]byte, stride)); err != nil {
			t.Fatal(err)
		}
	}
	frames := appendShortEnrollFrame(nil)
	frames = AppendColumnarFrame(frames, w.AppendTo(nil))
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}
	ack := flushAndAck(t, conn)
	if ack.EnrollRejected != 1 || ack.Reports != 0 || ack.ReportRejected != 2 {
		t.Fatalf("ack = %+v, want 1 rejected enrollment and 2 rejected reports", ack)
	}
}

// appendShortEnrollFrame appends a well-framed enroll frame whose body is
// too short to carry a user ID.
func appendShortEnrollFrame(dst []byte) []byte {
	dst = append(dst, 4, 0, 0, 0, FrameEnroll)
	return append(dst, 1, 2, 3, 4)
}

func TestServerCloseLeavesStreamOpen(t *testing.T) {
	proto, err := core.NewBinary(16, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	stream := newTestStream(t, proto)
	srv := newTestServer(t, stream, Config{})
	conn := dialTCPServer(t, srv)

	cl := proto.NewClient(5)
	frames, err := AppendEnrollFrame(nil, 5, cl.WireRegistration())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}
	if ack := flushAndAck(t, conn); ack.Enrolled != 1 {
		t.Fatalf("ack = %+v, want 1 enrolled", ack)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	// The daemon is gone but the stream and its enrollment survive.
	if got := stream.Enrolled(); got != 1 {
		t.Fatalf("enrolled after daemon close = %d, want 1", got)
	}
	if err := stream.Ingest(5, cl.AppendReport(nil, 1)); err != nil {
		t.Fatal(err)
	}
	if res := stream.CloseRound(); res.Reports != 1 {
		t.Fatalf("round after daemon close = %+v, want 1 report", res)
	}
}

func TestRoundTimerClosesPendingRounds(t *testing.T) {
	proto, err := core.NewBinary(16, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	stream := newTestStream(t, proto)
	newTestServer(t, stream, Config{RoundEvery: 5 * time.Millisecond})

	cl := proto.NewClient(3)
	if err := stream.Enroll(3, cl.WireRegistration()); err != nil {
		t.Fatal(err)
	}
	if err := stream.Ingest(3, cl.AppendReport(nil, 0)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for stream.Rounds() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("round timer never closed the pending round")
		}
		time.Sleep(time.Millisecond)
	}
	res, err := stream.Round(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reports != 1 {
		t.Fatalf("timer-closed round = %+v, want 1 report", res)
	}
	// With nothing pending the timer stays quiet: no empty rounds.
	rounds := stream.Rounds()
	time.Sleep(50 * time.Millisecond)
	if got := stream.Rounds(); got != rounds {
		t.Fatalf("timer published %d empty rounds", got-rounds)
	}
}
