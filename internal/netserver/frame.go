package netserver

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"

	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/persist"
	"github.com/loloha-ldp/loloha/internal/server"
)

// Raw-TCP framing: a length-prefixed envelope over the wire formats the
// library already has. Every frame is
//
//	u32 LE  body length n (0 ≤ n ≤ MaxFrameBytes)
//	u8      frame type
//	n bytes body
//
// Client → server frames:
//
//	enroll   (0x01): u64 LE userID ++ longitudinal.AppendRegistration bytes
//	(0x02):          reserved, never reused (formerly a per-report frame);
//	                 it closes the connection like any unknown type
//	flush    (0x03): empty body; requests an ack
//	columnar (0x04): one longitudinal columnar batch (header + packed
//	                 ID/registration/payload columns), the only report frame
//
// Server → client frames:
//
//	ack (0x80): 4 × u64 LE — enrolled, enrollRejected, reports,
//	            reportRejected (connection-lifetime counters)
//
// Columnar batches and enrollments are one-way (rejections only bump
// counters), so the steady state never waits on the server; flush is the
// explicit sync point — after its ack, every prior frame on the
// connection has been applied, which is what a load generator or a parity
// test needs before closing a round. A malformed frame (unknown type, oversize length,
// short body) is a protocol error and closes the connection: framing
// corruption is not survivable, unlike a semantically rejected report.

const (
	// FrameEnroll carries one user's enrollment.
	FrameEnroll = 0x01
	// Type 0x02 is reserved and never reused: it carried single reports
	// before columnar batches became the only report encoding.

	// FrameFlush requests an Ack for all prior frames.
	FrameFlush = 0x03
	// FrameColumnar carries one columnar batch of reports
	// (longitudinal.ColumnarWriter bytes). A batch whose header fails to
	// decode or whose spec hash disagrees with the server's protocol is a
	// protocol error (the producer's encoder is misconfigured) and drops
	// the connection; per-report rejections only bump counters.
	FrameColumnar = 0x04
	// FrameMerge carries one LME1 merge envelope (persist.AppendEnvelope
	// bytes) of a collector-tree leaf's round tallies. Only a root daemon
	// (Config.AcceptMerges) accepts it; elsewhere it is an unknown frame.
	// A body that is not a well-formed envelope — a raw LSS1 image
	// included — or whose spec hash disagrees with the server's protocol
	// drops the connection, exactly like a mismatched columnar batch: the
	// producer is misconfigured, not the data.
	FrameMerge = 0x05
	// FrameAck is the server's reply to FrameFlush.
	FrameAck = 0x80
	// FrameMergeAck is the server's immediate reply to a merge frame: a
	// per-envelope acknowledgement carrying
	// the envelope's sequence number, the reports merged, and whether the
	// envelope was deduplicated. Unlike the cumulative flush ack, it names
	// the exact envelope it confirms, so a leaf that redials (resetting
	// every connection-lifetime counter) still learns precisely what the
	// root applied.
	FrameMergeAck = 0x81

	frameHeaderBytes  = 5
	ackBodyBytes      = 32
	mergeAckBodyBytes = 17
	// frameMinBody is the smallest body a well-formed enroll frame carries
	// (the user ID); MaxFrameBytes may not be configured below it.
	frameMinBody = 8
)

// Merge envelope ack statuses.
const (
	// MergeApplied: the envelope's tallies were added to the open round.
	MergeApplied = 1
	// MergeDuplicate: the envelope's seq was at or below the root's
	// per-leaf watermark — its tallies are already in the counts, nothing
	// was reapplied, and the leaf must treat the envelope as delivered.
	MergeDuplicate = 2
)

// MergeAck is the per-envelope merge acknowledgement (FrameMergeAck body):
// u64 seq, u64 merged reports, u8 status.
type MergeAck struct {
	Seq    uint64
	Merged uint64
	Status byte
}

// Ack is the server's flush reply: connection-lifetime counters. After an
// Ack, every frame written before the flush has been applied to the
// stream.
type Ack struct {
	Enrolled       uint64
	EnrollRejected uint64
	Reports        uint64
	ReportRejected uint64
}

// ---------------------------------------------------------------------------
// Client-side frame construction (used by lolohasim's load generator, the
// examples and the tests; servers only read these).

// AppendEnrollFrame appends an enroll frame for userID to dst.
func AppendEnrollFrame(dst []byte, userID int, reg longitudinal.Registration) ([]byte, error) {
	if userID < 0 {
		return dst, fmt.Errorf("netserver: negative user ID %d not encodable", userID)
	}
	body := 8 + longitudinal.RegistrationWireSize(reg)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(body))
	dst = append(dst, FrameEnroll)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(userID))
	return longitudinal.AppendRegistration(dst, reg)
}

// AppendColumnarFrame appends a columnar batch frame to dst. batch is an
// encoded columnar batch (longitudinal.ColumnarWriter.AppendTo bytes).
//
//loloha:noalloc
func AppendColumnarFrame(dst []byte, batch []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(batch)))
	dst = append(dst, FrameColumnar)
	return append(dst, batch...)
}

// AppendMergeFrame appends a merge frame to dst. env is an encoded LME1
// merge envelope (persist.AppendEnvelope bytes); the root confirms it with
// a FrameMergeAck.
//
//loloha:noalloc
func AppendMergeFrame(dst []byte, env []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(env)))
	dst = append(dst, FrameMerge)
	return append(dst, env...)
}

// AppendFlushFrame appends a flush frame to dst.
func AppendFlushFrame(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	return append(dst, FrameFlush)
}

// AppendMergeAckFrame appends a per-envelope merge ack frame to dst.
//
//loloha:noalloc
func AppendMergeAckFrame(dst []byte, ack MergeAck) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, mergeAckBodyBytes)
	dst = append(dst, FrameMergeAck)
	dst = binary.LittleEndian.AppendUint64(dst, ack.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, ack.Merged)
	return append(dst, ack.Status)
}

// ReadMergeAck reads one per-envelope merge ack frame from r (as written
// by a root in reply to an envelope merge frame).
func ReadMergeAck(r io.Reader) (MergeAck, error) {
	var b [frameHeaderBytes + mergeAckBodyBytes]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return MergeAck{}, err
	}
	if n := binary.LittleEndian.Uint32(b[:4]); n != mergeAckBodyBytes {
		return MergeAck{}, fmt.Errorf("netserver: merge ack body %d bytes, want %d", n, mergeAckBodyBytes)
	}
	if b[4] != FrameMergeAck {
		return MergeAck{}, fmt.Errorf("netserver: frame type 0x%02x, want merge ack", b[4])
	}
	ack := MergeAck{
		Seq:    binary.LittleEndian.Uint64(b[5:]),
		Merged: binary.LittleEndian.Uint64(b[13:]),
		Status: b[21],
	}
	if ack.Status != MergeApplied && ack.Status != MergeDuplicate {
		return MergeAck{}, fmt.Errorf("netserver: merge ack status 0x%02x unknown", ack.Status)
	}
	return ack, nil
}

// ReadAck reads one ack frame from r (as written by the server in reply
// to a flush).
func ReadAck(r io.Reader) (Ack, error) {
	var b [frameHeaderBytes + ackBodyBytes]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return Ack{}, err
	}
	if n := binary.LittleEndian.Uint32(b[:4]); n != ackBodyBytes {
		return Ack{}, fmt.Errorf("netserver: ack body %d bytes, want %d", n, ackBodyBytes)
	}
	if b[4] != FrameAck {
		return Ack{}, fmt.Errorf("netserver: frame type 0x%02x, want ack", b[4])
	}
	return Ack{
		Enrolled:       binary.LittleEndian.Uint64(b[5:]),
		EnrollRejected: binary.LittleEndian.Uint64(b[13:]),
		Reports:        binary.LittleEndian.Uint64(b[21:]),
		ReportRejected: binary.LittleEndian.Uint64(b[29:]),
	}, nil
}

// ---------------------------------------------------------------------------
// Server-side connection loop.

// tcpConn is one accepted raw-frame connection. The read loop owns all of
// its state — one frame buffer, one decode target, one buffered
// reader/writer, four counters — so the steady state (columnar frame →
// IngestColumnar) touches no shared memory beyond the stream's shards and
// performs zero allocations per report.
type tcpConn struct {
	srv *Server
	nc  net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer
	hdr [frameHeaderBytes]byte
	buf []byte // reusable frame body, grown to the largest frame seen
	// col is the connection's reusable columnar decode target: its column
	// slices grow to the largest batch seen, so steady-state columnar
	// frames decode and tally with zero allocations per report.
	col longitudinal.ColumnarBatch

	enrolled       uint64
	enrollRejected uint64
	reports        uint64
	reportRejected uint64
}

func newTCPConn(s *Server, nc net.Conn) *tcpConn {
	return &tcpConn{
		srv: s,
		nc:  nc,
		br:  bufio.NewReaderSize(nc, 64<<10),
		bw:  bufio.NewWriterSize(nc, 1<<10),
	}
}

// serve runs the read loop until EOF, a read error, or a protocol error.
func (c *tcpConn) serve() {
	defer func() {
		c.srv.tcpReports.Add(c.reports)
		c.srv.tcpRejected.Add(c.enrollRejected + c.reportRejected)
	}()
	for {
		typ, body, err := c.readFrame()
		if err != nil {
			return // EOF (clean close), read error, or oversize frame
		}
		switch typ {
		case FrameColumnar:
			if !c.handleColumnar(body) {
				return // undecodable or wrong-protocol batch: protocol error
			}
		case FrameMerge:
			if !c.handleMerge(body) {
				return // not a root, undecodable, or wrong-protocol snapshot
			}
		case FrameEnroll:
			c.handleEnroll(body)
		case FrameFlush:
			if err := c.writeAck(); err != nil {
				return
			}
		default:
			return // unknown frame type: protocol error, drop the conn
		}
	}
}

// readFrame reads one frame into the connection's reusable buffer. The
// returned body aliases c.buf and is valid until the next call. The
// length is validated against MaxFrameBytes before any allocation sized
// by it.
//
//loloha:noalloc
func (c *tcpConn) readFrame() (byte, []byte, error) {
	if _, err := io.ReadFull(c.br, c.hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(c.hdr[:4]))
	if n > c.srv.maxFrame {
		return 0, nil, fmt.Errorf("netserver: frame body %d bytes exceeds limit %d", n, c.srv.maxFrame)
	}
	if cap(c.buf) < n {
		//loloha:alloc-ok amortized frame-buffer growth, bounded by MaxFrameBytes
		c.buf = make([]byte, n)
	}
	body := c.buf[:n]
	if _, err := io.ReadFull(c.br, body); err != nil {
		return 0, nil, err
	}
	return c.hdr[4], body, nil
}

// handleColumnar applies one columnar batch frame: decode the packed
// columns into the connection's reusable batch and tally them in one
// IngestColumnar call. Returns false on a protocol error — a body that
// fails structural decoding, or a batch whose spec hash/stride disagrees
// with the server's protocol (server.ErrColumnarMismatch): both mean the
// producer's encoder is broken, which, like framing corruption, is not
// survivable. Per-report rejections bump counters and keep the
// connection. Zero allocations per report in the steady state.
//
//loloha:noalloc
func (c *tcpConn) handleColumnar(body []byte) bool {
	if err := longitudinal.DecodeColumnar(body, &c.col); err != nil {
		return false
	}
	n := uint64(c.col.Count())
	err := c.srv.stream.IngestColumnar(&c.col)
	if err != nil && errors.Is(err, server.ErrColumnarMismatch) {
		return false
	}
	rejected := uint64(countJoined(err))
	c.reports += n - rejected
	c.reportRejected += rejected
	return true
}

// handleMerge applies one merge frame — an LME1 merge envelope — and
// replies with a per-envelope ack: the exactly-once half of the merge
// path. A duplicate (seq at or below the leaf's applied watermark) is
// acknowledged without decoding its payload, let alone reapplying it, so
// a retry storm costs the root one header parse per envelope. Returns
// false on a protocol error — a daemon that is not a root
// (Config.AcceptMerges unset), a body that is not a well-formed envelope
// (a raw LSS1 image included), or a snapshot whose spec hash disagrees
// with the server's protocol (server.ErrSnapshotMismatch): all mean the
// sender is misconfigured, which, like framing corruption, is not
// survivable.
func (c *tcpConn) handleMerge(body []byte) bool {
	if !c.srv.acceptMerges {
		return false
	}
	h, err := persist.ParseEnvelopeHeader(body)
	if err != nil {
		c.srv.mergeBad.Add(1)
		return false
	}
	if !c.srv.stream.ShouldApply(h.Leaf, h.Seq) {
		c.srv.stream.RecordDuplicate(h.Leaf)
		c.srv.mergeDup.Add(1)
		return c.writeMergeAck(MergeAck{Seq: h.Seq, Status: MergeDuplicate})
	}
	env, err := persist.DecodeEnvelope(body)
	if err != nil {
		c.srv.mergeBad.Add(1)
		return false
	}
	n, dup, err := c.srv.stream.MergeEnvelope(env)
	if err != nil {
		c.srv.mergeBad.Add(1)
		return false
	}
	if dup {
		// ShouldApply raced another connection shipping the same envelope;
		// MergeEnvelope's ledger check is the authoritative one.
		c.srv.mergeDup.Add(1)
		return c.writeMergeAck(MergeAck{Seq: h.Seq, Status: MergeDuplicate})
	}
	c.reports += uint64(n)
	c.srv.mergeFrames.Add(1)
	c.srv.mergeReports.Add(uint64(n))
	c.srv.noteLeafArrival(env.Leaf, n)
	return c.writeMergeAck(MergeAck{Seq: h.Seq, Merged: uint64(n), Status: MergeApplied})
}

// writeMergeAck replies to one envelope immediately (no flush needed):
// the ack is the leaf's delivery receipt, so it must not wait on anything
// else the connection may carry.
func (c *tcpConn) writeMergeAck(ack MergeAck) bool {
	var b [frameHeaderBytes + mergeAckBodyBytes]byte
	if _, err := c.bw.Write(AppendMergeAckFrame(b[:0], ack)); err != nil {
		return false
	}
	return c.bw.Flush() == nil
}

// handleEnroll applies one enroll frame. Enrollment is one-time per user
// (cold), so this path may allocate (DecodeRegistration copies the
// sampled buckets out of the frame buffer, which the next frame
// overwrites).
func (c *tcpConn) handleEnroll(body []byte) {
	if len(body) < 8 {
		c.enrollRejected++
		return
	}
	id := binary.LittleEndian.Uint64(body)
	if id > math.MaxInt {
		c.enrollRejected++
		return
	}
	reg, rest, err := longitudinal.DecodeRegistration(body[8:])
	if err != nil || len(rest) != 0 {
		c.enrollRejected++
		return
	}
	if err := c.srv.stream.Enroll(int(id), reg); err != nil {
		c.enrollRejected++
		return
	}
	c.enrolled++
}

// writeAck replies to a flush with the connection's counters.
func (c *tcpConn) writeAck() error {
	var b [frameHeaderBytes + ackBodyBytes]byte
	binary.LittleEndian.PutUint32(b[:4], ackBodyBytes)
	b[4] = FrameAck
	binary.LittleEndian.PutUint64(b[5:], c.enrolled)
	binary.LittleEndian.PutUint64(b[13:], c.enrollRejected)
	binary.LittleEndian.PutUint64(b[21:], c.reports)
	binary.LittleEndian.PutUint64(b[29:], c.reportRejected)
	if _, err := c.bw.Write(b[:]); err != nil {
		return err
	}
	return c.bw.Flush()
}
