// Command lolohad is the networked collection daemon: one server.Stream
// behind real sockets, with durable state and an optional collector tree.
//
//	lolohad -spec '{"family":"LOLOHA","k":100,"g":2,"eps_inf":2,"eps1":1}'
//	lolohad -spec spec.json -http :8080 -tcp :9090 -round 10s
//	lolohad -spec spec.json -snapshot-dir /var/lib/loloha -snapshot-every 30s
//	lolohad -spec spec.json -mode root -tcp :9090
//	lolohad -spec spec.json -mode leaf -parent root:9090 -round 10s
//
// HTTP serves the v1 API (enrollment, LCB1 columnar report batches, round
// control, status, a live SSE round stream) and an embedded dashboard at
// /. The optional raw-TCP listener ingests length-prefixed frames carrying
// the same batches on the zero-allocation decode→tally path — the transport for load
// generators and high-volume collectors (`lolohasim loadgen` drives
// either). Rounds close on the -round period when reports are pending, or
// on demand via POST /v1/round/close.
//
// Durability: with -snapshot-dir the daemon writes its full state (tally
// vectors, registration table, round index) as an atomically-replaced
// LSS1 image — periodically with -snapshot-every and always on SIGTERM /
// SIGINT after draining in-flight batches — and restores it at startup,
// refusing an image written under a different protocol spec.
//
// Collector tree: -mode root accepts merge traffic (TCP merge frames and
// POST /v1/merge); -mode leaf -parent host:port -leaf-id name ships every
// closed round's tallies upstream as a merge envelope, making the root's
// rounds bit-identical to a single daemon that saw all reports. Delivery
// is exactly-once: the root deduplicates per (-leaf-id, sequence) in a
// durable ledger, and a leaf with -snapshot-dir spools unshipped
// envelopes to disk and replays them after a crash. -round-deadline,
// -quorum and -expect-leaves let a root publish partial rounds instead of
// stalling on a dead leaf.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	// Registers the LOLOHA/BiLOLOHA/OLOLOHA families; the baseline
	// families register from longitudinal itself.
	_ "github.com/loloha-ldp/loloha/internal/core"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lolohad:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lolohad", flag.ContinueOnError)
	var o daemonOptions
	fs.StringVar(&o.spec, "spec", "", "protocol: inline ProtocolSpec JSON (starts with '{') or a path to a spec file (required)")
	fs.StringVar(&o.mode, "mode", "single", "daemon role: single, root (accepts merge traffic) or leaf (ships closed rounds to -parent)")
	fs.StringVar(&o.parent, "parent", "", "collector-tree parent: raw-frame TCP host:port or http(s):// URL (required with -mode leaf)")
	fs.StringVar(&o.leafID, "leaf-id", "", "this leaf's stable identity in the parent's dedup ledger (required with -parent; must survive restarts)")
	fs.StringVar(&o.httpAddr, "http", "127.0.0.1:8080", "HTTP listen address (API + dashboard)")
	fs.StringVar(&o.tcpAddr, "tcp", "", "raw-frame TCP listen address (empty = disabled)")
	fs.IntVar(&o.shards, "shards", 0, "ingestion shards (0 = the stream's default)")
	fs.DurationVar(&o.round, "round", 0, "close the round on this period when reports are pending (0 = manual via the API)")
	fs.IntVar(&o.roundCap, "roundcap", 0, "retained round history and subscriber buffer depth (0 = the stream's default)")
	fs.IntVar(&o.maxFrame, "maxframe", 0, "max TCP frame body in bytes (0 = 1 MiB)")
	fs.IntVar(&o.maxBatch, "maxbatch", 0, "max HTTP /v1/reports body in bytes (0 = 8 MiB)")
	fs.DurationVar(&o.roundDeadline, "round-deadline", 0, "root: close the round this long after its first merge envelope even if leaves are missing (0 = wait forever)")
	fs.IntVar(&o.quorum, "quorum", 0, "root: minimum distinct leaves before -round-deadline may close the round (0 = 1)")
	fs.IntVar(&o.expectLeaves, "expect-leaves", 0, "root: the tree's leaf count — close immediately when all arrived, count slower deadline closes as partial")
	fs.StringVar(&o.snapDir, "snapshot-dir", "", "directory for the durable state image; restored at startup, written on shutdown (empty = no durability)")
	fs.DurationVar(&o.snapEvery, "snapshot-every", 0, "also snapshot on this period (0 = only at shutdown; requires -snapshot-dir)")
	fs.DurationVar(&o.drain, "drain", 5*time.Second, "graceful-shutdown budget for in-flight batches before the final snapshot")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (lolohad takes flags only)", fs.Arg(0))
	}
	if o.spec == "" {
		fs.Usage()
		return fmt.Errorf("-spec is required")
	}

	d, err := newDaemon(o, os.Stdout)
	if err != nil {
		return err
	}
	signal.Notify(d.sig, os.Interrupt, syscall.SIGTERM)
	return d.run()
}

// buildProtocol resolves -spec: inline JSON when the argument looks like a
// JSON object, otherwise a file path.
func buildProtocol(arg string) (longitudinal.Protocol, error) {
	data := []byte(arg)
	if !strings.HasPrefix(strings.TrimSpace(arg), "{") {
		var err error
		if data, err = os.ReadFile(arg); err != nil {
			return nil, fmt.Errorf("-spec: %w", err)
		}
	}
	spec, err := longitudinal.ParseSpec(data)
	if err != nil {
		return nil, fmt.Errorf("-spec: %w", err)
	}
	proto, err := spec.Build()
	if err != nil {
		return nil, fmt.Errorf("-spec: %w", err)
	}
	return proto, nil
}
