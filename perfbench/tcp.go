package main

import (
	"net"
	"net/http"
	"time"

	"github.com/loloha-ldp/loloha/internal/netserver"
)

// tcpFrames wraps every generated batch as it goes on the socket — one
// columnar frame followed by a flush frame — and re-points the wire's
// batches at the columnar bytes inside those frames, so the reference
// check reads the very bytes that were sent.
func tcpFrames(w *wire) [][][][]byte {
	sends := make([][][][]byte, len(w.batches))
	for d, parts := range w.batches {
		sends[d] = make([][][]byte, len(parts))
		for p, batches := range parts {
			for i, b := range batches {
				f := make([]byte, 0, len(b)+10)
				f = netserver.AppendColumnarFrame(f, b)
				f = netserver.AppendFlushFrame(f)
				sends[d][p] = append(sends[d][p], f)
				batches[i] = f[5 : 5+len(b)]
			}
		}
	}
	return sends
}

// tcpSUT is one daemon over loopback: raw-frame TCP ingest from one
// connection per partition, HTTP for round control.
type tcpSUT struct {
	*node
	in    *inputs
	w     *watcher
	hc    *http.Client
	conns []net.Conn
	acked []netserver.Ack
}

func setupTCP(_ config, in *inputs, _ string) (sut, error) {
	n, tcpAddr, err := startNode(in, netserver.Config{})
	if err != nil {
		return nil, err
	}
	s := &tcpSUT{node: n, in: in, w: watch(n.stream), hc: newHTTPClient(),
		acked: make([]netserver.Ack, in.wl.parts)}
	for range in.wl.parts {
		c, err := net.Dial("tcp", tcpAddr)
		if err != nil {
			s.close()
			return nil, err
		}
		s.conns = append(s.conns, c)
	}
	if _, err := s.round(0, 0, nil); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *tcpSUT) round(id, d int, tr *tracer) (roundObs, error) {
	rid := tr.id()
	start := time.Now()
	acks := make([][]time.Duration, len(s.conns))
	err := parallel(len(s.conns), func(c int) error {
		conn := s.conns[c]
		// A stalled daemon fails the round instead of hanging the run.
		if err := conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
			return err
		}
		for _, f := range s.in.sends[d][c] {
			t0 := time.Now()
			if _, err := conn.Write(f); err != nil {
				return err
			}
			ack, err := netserver.ReadAck(conn)
			if err != nil {
				return err
			}
			t1 := time.Now()
			acks[c] = append(acks[c], t1.Sub(t0))
			tr.add(0, rid, id, "tcp.batch", t0, t1, int(ack.Reports-s.acked[c].Reports))
			s.acked[c] = ack
		}
		return nil
	})
	if err != nil {
		return roundObs{}, err
	}
	closeAt := time.Now()
	var reply closeReply
	if err := postJSON(s.hc, s.base+"/v1/round/close", "application/json", nil, &reply); err != nil {
		return roundObs{}, err
	}
	got, err := s.w.await(id)
	if err != nil {
		return roundObs{}, err
	}
	tr.add(0, rid, id, "publish", closeAt, got.at, 1)
	tr.add(rid, 0, id, "round", start, got.at, got.res.Reports)
	obs := roundObs{reports: got.res.Reports, latency: got.at.Sub(start), publish: got.at.Sub(closeAt), raw: got.res.Raw}
	for _, a := range acks {
		obs.acks = append(obs.acks, a...)
	}
	return obs, nil
}

// status counts rejections from the connections' own ack counters: the
// daemon folds them into /v1/status only when a connection closes.
func (s *tcpSUT) status() (statusCounts, error) {
	var st statusCounts
	for _, a := range s.acked {
		st.rejected += a.EnrollRejected + a.ReportRejected
	}
	st.droppedRounds = s.stream.DroppedRounds()
	return st, nil
}

func (s *tcpSUT) close() {
	for _, c := range s.conns {
		c.Close()
	}
	s.node.close()
	<-s.w.done
	s.hc.CloseIdleConnections()
}
