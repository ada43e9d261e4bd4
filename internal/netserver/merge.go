package netserver

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/loloha-ldp/loloha/internal/persist"
)

// ContentTypeEnvelope is the required Content-Type of POST /v1/merge: the
// body is one LME1 merge envelope (persist.AppendEnvelope bytes). Any
// other content type is answered 415.
const ContentTypeEnvelope = "application/x-loloha-envelope"

// MergeSender ships encoded LME1 merge envelopes to a collector-tree
// parent and returns the parent's per-envelope acknowledgement. The
// contract is exactly-once delivery over an at-least-once transport: a
// Ship may be retried indefinitely with the same envelope bytes — the
// parent's ledger turns every redelivery into a duplicate ack, never a
// double count. An error means delivery is UNKNOWN (the envelope may or
// may not have been applied) and the caller must retry the same bytes.
type MergeSender interface {
	// Ship delivers one envelope (persist.AppendEnvelope bytes) and
	// returns the reports the parent merged and whether the parent
	// reported the envelope as a duplicate (already applied).
	Ship(env []byte) (merged int, duplicate bool, err error)
	// Addr identifies the parent (address or URL) for logs and errors.
	Addr() string
	Close() error
}

// NewMergeSender returns a sender for target: an http:// or https:// URL
// ships through POST /v1/merge, anything else is a raw-frame TCP address.
// timeout bounds each Ship's dial and round trip; 0 means 10s.
func NewMergeSender(target string, timeout time.Duration) (MergeSender, error) {
	if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") {
		return NewHTTPMergeClient(target, timeout), nil
	}
	return DialMerge(target, timeout)
}

// MergeClient ships merge envelopes to a collector-tree parent over one
// raw-frame TCP connection: each Ship writes a merge frame carrying the
// envelope and reads the per-envelope ack (FrameMergeAck), so a confirmed
// Ship means the parent has applied (or deduplicated) exactly that
// envelope — there is no connection-lifetime state to lose on a redial.
//
// The client reconnects lazily: a Ship after a transport error redials.
// It is safe for concurrent use; Ships serialize.
type MergeClient struct {
	addr    string
	timeout time.Duration

	mu  sync.Mutex
	nc  net.Conn
	bw  *bufio.Writer
	buf []byte // frame scratch, reused across Ships
}

// DialMerge returns a merge client for the parent at addr (a raw-frame
// TCP address, not HTTP). The first connection is established eagerly so
// a mistyped parent fails at startup, not at the first round. timeout
// bounds each Ship's dial and round trip; 0 means 10s.
func DialMerge(addr string, timeout time.Duration) (*MergeClient, error) {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	c := &MergeClient{addr: addr, timeout: timeout}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.connectLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// Addr returns the parent's address.
func (c *MergeClient) Addr() string { return c.addr }

func (c *MergeClient) connectLocked() error {
	nc, err := net.DialTimeout("tcp", c.addr, c.timeout)
	if err != nil {
		return fmt.Errorf("netserver: dialing merge parent %s: %w", c.addr, err)
	}
	c.nc = nc
	c.bw = bufio.NewWriterSize(nc, 64<<10)
	return nil
}

// Ship delivers one envelope and returns the parent's per-envelope ack.
// On any transport or protocol error the connection is dropped (the next
// Ship redials) and delivery is unknown: the caller retries the same
// bytes, which the parent's ledger makes safe.
func (c *MergeClient) Ship(env []byte) (int, bool, error) {
	h, err := persist.ParseEnvelopeHeader(env)
	if err != nil {
		return 0, false, fmt.Errorf("netserver: refusing to ship a malformed envelope: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.nc == nil {
		if err := c.connectLocked(); err != nil {
			return 0, false, err
		}
	}
	c.buf = AppendMergeFrame(c.buf[:0], env)
	c.nc.SetDeadline(time.Now().Add(c.timeout))
	if _, err := c.bw.Write(c.buf); err != nil {
		c.dropLocked()
		return 0, false, fmt.Errorf("netserver: writing merge envelope to %s: %w", c.addr, err)
	}
	if err := c.bw.Flush(); err != nil {
		c.dropLocked()
		return 0, false, fmt.Errorf("netserver: writing merge envelope to %s: %w", c.addr, err)
	}
	ack, err := ReadMergeAck(c.nc)
	if err != nil {
		c.dropLocked()
		return 0, false, fmt.Errorf("netserver: merge envelope unconfirmed by %s (mismatched snapshot drops the connection): %w", c.addr, err)
	}
	if ack.Seq != h.Seq {
		c.dropLocked()
		return 0, false, fmt.Errorf("netserver: %s acked seq %d, shipped %d", c.addr, ack.Seq, h.Seq)
	}
	return int(ack.Merged), ack.Status == MergeDuplicate, nil
}

// Close closes the connection; a later Ship redials.
func (c *MergeClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.nc == nil {
		return nil
	}
	err := c.nc.Close()
	c.nc, c.bw = nil, nil
	return err
}

func (c *MergeClient) dropLocked() {
	if c.nc != nil {
		c.nc.Close()
	}
	c.nc, c.bw = nil, nil
}

// HTTPMergeClient ships merge envelopes through POST /v1/merge — the
// transport for trees whose interior links cross HTTP-only networks. The
// delivery contract is identical to the TCP client's: per-envelope acks,
// retry-safe, duplicate-aware.
type HTTPMergeClient struct {
	base string
	hc   *http.Client
}

// NewHTTPMergeClient returns an HTTP merge client for the root at base
// (e.g. "http://host:port"). timeout bounds each Ship; 0 means 10s.
func NewHTTPMergeClient(base string, timeout time.Duration) *HTTPMergeClient {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	return &HTTPMergeClient{
		base: strings.TrimSuffix(base, "/"),
		hc:   &http.Client{Timeout: timeout},
	}
}

// Addr returns the root's base URL.
func (c *HTTPMergeClient) Addr() string { return c.base }

// Ship posts one envelope and returns the root's per-envelope ack.
func (c *HTTPMergeClient) Ship(env []byte) (int, bool, error) {
	h, err := persist.ParseEnvelopeHeader(env)
	if err != nil {
		return 0, false, fmt.Errorf("netserver: refusing to ship a malformed envelope: %w", err)
	}
	resp, err := c.hc.Post(c.base+"/v1/merge", ContentTypeEnvelope, bytes.NewReader(env))
	if err != nil {
		return 0, false, fmt.Errorf("netserver: shipping merge envelope to %s: %w", c.base, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err != nil {
		return 0, false, fmt.Errorf("netserver: reading merge ack from %s: %w", c.base, err)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, false, fmt.Errorf("netserver: %s rejected merge envelope: status %d: %s",
			c.base, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var ack struct {
		Seq       uint64 `json:"seq"`
		Merged    int    `json:"merged"`
		Duplicate bool   `json:"duplicate"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		return 0, false, fmt.Errorf("netserver: decoding merge ack from %s: %w", c.base, err)
	}
	if ack.Seq != h.Seq {
		return 0, false, fmt.Errorf("netserver: %s acked seq %d, shipped %d", c.base, ack.Seq, h.Seq)
	}
	return ack.Merged, ack.Duplicate, nil
}

// Close releases idle connections.
func (c *HTTPMergeClient) Close() error {
	c.hc.CloseIdleConnections()
	return nil
}
