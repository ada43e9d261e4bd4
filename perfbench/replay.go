package main

import (
	"bytes"
	"fmt"
	"time"

	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/netserver"
	"github.com/loloha-ldp/loloha/internal/persist"
	"github.com/loloha-ldp/loloha/internal/server"
)

// replay regenerates the workload's first dataset rounds from its seed and
// drives them through each layer's public entry points on replicas, from
// one goroutine, recording a span per call. Where a layer runs behind a
// socket in the live workload this is the only way to time it from the
// benchmark's own code, and it doubles as the single-threaded baseline.
func replay(cfg config, in *inputs, tr *tracer) error {
	rounds := min(cfg.replayRounds, in.tau-1)
	ds, err := newDataset(in.wl.dataset, in.n, rounds+1, in.seed)
	if err != nil {
		return err
	}
	w, err := genWire(in.proto, ds, in.seed, rounds+1, in.wl.parts, in.wl.batch, false, tr)
	if err != nil {
		return err
	}

	// Enrollment, columnar decode and ingest, and the round close, on a
	// replica of one node.
	node, err := server.NewStream(in.proto)
	if err != nil {
		return err
	}
	defer node.Close()
	for lo := 0; lo < w.n; lo += 1024 {
		hi := min(lo+1024, w.n)
		err := tr.timed(0, 0, "server.enroll", hi-lo, func() error {
			for u := lo; u < hi; u++ {
				if err := node.Enroll(u, w.regs[u]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	var col longitudinal.ColumnarBatch
	for d := 1; d <= rounds; d++ {
		for _, part := range w.batches[d] {
			for _, b := range part {
				err := tr.timed(0, d, "longitudinal.decode_columnar", 1, func() error {
					return longitudinal.DecodeColumnar(b, &col)
				})
				if err != nil {
					return err
				}
				err = tr.timed(0, d, "server.ingest_columnar", col.Count(), func() error {
					return node.IngestColumnar(&col)
				})
				if err != nil {
					return err
				}
			}
		}
		tr.timed(0, d, "server.close_round", 1, func() error { node.CloseRound(); return nil })
	}

	// The family's tally alone, on a standalone aggregator.
	tp, ok := in.proto.(longitudinal.TallyProtocol)
	if !ok {
		return fmt.Errorf("%s has no wire tallier", in.proto.Name())
	}
	tallier, agg := tp.WireTallier(), in.proto.NewAggregator()
	for d := 1; d <= rounds; d++ {
		for _, part := range w.batches[d] {
			for _, b := range part {
				if err := longitudinal.DecodeColumnar(b, &col); err != nil {
					return err
				}
				err := tr.timed(0, d, "longitudinal.tally", col.Count(), func() error {
					for i, u := range col.IDs {
						if err := tallier.TallyWire(agg, u, col.Payload(i), w.regs[u]); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					return err
				}
			}
		}
		agg.EndRound()
	}
	return replayTree(in, w, rounds, tr)
}

// replayTree times the collector tree's publish path one call at a time:
// a leaf replica's export, the persist codecs, a root replica's merge, and
// a MergeSender round trip to a root daemon over loopback TCP. It also
// times a full snapshot taken in the middle of each round.
func replayTree(in *inputs, w *wire, rounds int, tr *tracer) error {
	leaf, err := server.NewStream(in.proto)
	if err != nil {
		return err
	}
	defer leaf.Close()
	root, err := server.NewStream(in.proto)
	if err != nil {
		return err
	}
	defer root.Close()
	shipRoot, err := server.NewStream(in.proto)
	if err != nil {
		return err
	}
	defer shipRoot.Close()
	srv, err := netserver.New(netserver.Config{Stream: shipRoot, AcceptMerges: true})
	if err != nil {
		return err
	}
	defer srv.Close()
	addr, err := listen(srv.ServeTCP)
	if err != nil {
		return err
	}
	sender, err := netserver.NewMergeSender(addr, 10*time.Second)
	if err != nil {
		return err
	}
	defer sender.Close()

	if err := ingestBatches(leaf, w.batches[0]); err != nil {
		return err
	}
	leaf.CloseRound()
	for d := 1; d <= rounds; d++ {
		parts := w.batches[d]
		half := len(parts) / 2
		if err := ingestBatches(leaf, parts[:half]); err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := tr.timed(0, d, "server.snapshot", 1, func() error { return leaf.Snapshot(&buf) }); err != nil {
			return err
		}
		tr.size("server.snapshot", buf.Len())
		if err := ingestBatches(leaf, parts[half:]); err != nil {
			return err
		}

		var snap *persist.Snapshot
		err := tr.timed(0, d, "server.close_round_export", 1, func() (err error) {
			_, snap, err = leaf.CloseRoundExport()
			return err
		})
		if err != nil {
			return err
		}
		var image []byte
		if err := tr.timed(0, d, "persist.append", 1, func() (err error) {
			image, err = persist.Append(nil, snap)
			return err
		}); err != nil {
			return err
		}
		tr.size("persist.image", len(image))
		var envBytes []byte
		var env *persist.Envelope
		err = tr.timed(0, d, "persist.envelope", 1, func() (err error) {
			if envBytes, err = persist.AppendEnvelopeImage(nil, "replay", d, uint64(d), image); err != nil {
				return err
			}
			if _, err = persist.ParseEnvelopeHeader(envBytes); err != nil {
				return err
			}
			env, err = persist.DecodeEnvelope(envBytes)
			return err
		})
		if err != nil {
			return err
		}
		if err := tr.timed(0, d, "server.merge_envelope", 1, func() error {
			_, _, err := root.MergeEnvelope(env)
			return err
		}); err != nil {
			return err
		}
		root.CloseRound()
		if err := tr.timed(0, d, "netserver.ship", 1, func() error {
			_, _, err := sender.Ship(envBytes)
			return err
		}); err != nil {
			return err
		}
		shipRoot.CloseRound()
	}
	return nil
}
