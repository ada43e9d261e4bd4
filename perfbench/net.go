package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/netserver"
	"github.com/loloha-ldp/loloha/internal/server"
)

// stamped is a published RoundResult with the time a subscriber saw it.
type stamped struct {
	res server.RoundResult
	at  time.Time
}

// watcher timestamps every RoundResult a stream publishes the moment it
// arrives on a Subscribe channel. It stops when the stream is closed.
type watcher struct {
	out  chan stamped
	done chan struct{}
}

func watch(s *server.Stream) *watcher {
	sub := s.Subscribe()
	// One round is in flight at a time and await reads it, so the buffer
	// never fills; a full one would show up as await's timeout.
	w := &watcher{out: make(chan stamped, 16), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		for res := range sub {
			select {
			case w.out <- stamped{res, time.Now()}:
			default:
			}
		}
	}()
	return w
}

// await returns the published result of round id.
func (w *watcher) await(id int) (stamped, error) {
	timeout := time.After(30 * time.Second)
	for {
		select {
		case st := <-w.out:
			if st.res.Round == id {
				return st, nil
			}
			if st.res.Round > id {
				return st, fmt.Errorf("published round %d while waiting for %d", st.res.Round, id)
			}
		case <-timeout:
			return stamped{}, fmt.Errorf("round %d not published within 30s", id)
		}
	}
}

// node is one in-process daemon: a stream behind the netserver engine,
// serving HTTP and raw-frame TCP on loopback.
type node struct {
	stream *server.Stream
	srv    *netserver.Server
	up     netserver.MergeSender // a leaf's link to its parent
	base   string                // HTTP base URL
	dir    string                // snapshot directory (leaves)
}

func startNode(in *inputs, cfg netserver.Config) (*node, string, error) {
	stream, err := server.NewStream(in.proto)
	if err != nil {
		return nil, "", err
	}
	cfg.Stream = stream
	srv, err := netserver.New(cfg)
	if err != nil {
		stream.Close()
		return nil, "", err
	}
	n := &node{stream: stream, srv: srv, up: cfg.Upstream}
	httpAddr, err := listen(srv.ServeHTTP)
	if err != nil {
		n.close()
		return nil, "", err
	}
	n.base = "http://" + httpAddr
	tcpAddr, err := listen(srv.ServeTCP)
	if err != nil {
		n.close()
		return nil, "", err
	}
	return n, tcpAddr, nil
}

func (n *node) close() {
	n.srv.Close()
	if n.up != nil {
		n.up.Close()
	}
	n.stream.Close()
}

// listen opens a loopback listener and serves it on a goroutine the
// server's Close stops.
func listen(serve func(net.Listener) error) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	go serve(ln)
	return ln.Addr().String(), nil
}

// newHTTPClient returns a client that keeps at most one connection to
// each host, so one loader is one connection.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// postJSON posts body and decodes a 200 JSON reply into v.
func postJSON(hc *http.Client, url, contentType string, body []byte, v any) error {
	resp, err := hc.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, v)
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// closeReply is the part of a POST /v1/round/close reply the benchmark
// reads: a leaf whose ship failed says so next to its round.
type closeReply struct {
	ShipError string `json:"ship_error"`
}

// daemonStatus is the part of GET /v1/status the benchmark reads.
type daemonStatus struct {
	TCP   struct{ Rejected uint64 } `json:"tcp"`
	HTTP  struct{ Rejected uint64 } `json:"http"`
	Merge struct {
		Rejected      uint64 `json:"rejected"`
		Duplicates    uint64 `json:"duplicates"`
		ShipFailed    uint64 `json:"ship_failed"`
		Retries       uint64 `json:"retries"`
		PartialRounds uint64 `json:"partial_rounds"`
	} `json:"merge"`
}

// ingestBatches feeds encoded columnar batches to a stream in-process.
// Rejected reports are not errors: the live run saw the same rejections.
func ingestBatches(s *server.Stream, batches [][][]byte) error {
	var col longitudinal.ColumnarBatch
	for _, part := range batches {
		for _, b := range part {
			if err := longitudinal.DecodeColumnar(b, &col); err != nil {
				return err
			}
			s.IngestColumnar(&col)
		}
	}
	return nil
}

// checkReference replays the sampled rounds' generated batches into a
// fresh in-process Stream and returns how many sampled estimates are not
// bit-identical to its own. For the collector tree this checks that the
// tree equals a single node fed every partition.
func checkReference(in *inputs, samples []sample) (int, error) {
	ref, err := server.NewStream(in.proto)
	if err != nil {
		return 0, err
	}
	defer ref.Close()
	if err := ingestBatches(ref, in.wire.batches[0]); err != nil {
		return 0, err
	}
	ref.CloseRound()
	byRound := map[int][]sample{}
	var rounds []int
	for _, s := range samples {
		if byRound[s.d] == nil {
			rounds = append(rounds, s.d)
		}
		byRound[s.d] = append(byRound[s.d], s)
	}
	sort.Ints(rounds)
	bad := 0
	for _, d := range rounds {
		if err := ingestBatches(ref, in.wire.batches[d]); err != nil {
			return 0, err
		}
		want := ref.CloseRound()
		for _, s := range byRound[d] {
			if !sameBits(s.raw, want.Raw) {
				bad++
			}
		}
	}
	return bad, nil
}

// parallel runs f(0..n-1) on n goroutines and returns the first error.
func parallel(n int, f func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
