package main

import (
	"fmt"
	"time"

	"github.com/loloha-ldp/loloha/internal/datasets"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/randsrc"
)

// wire is a workload's pregenerated traffic: every user's reports as LCB1
// columnar batches. Client seeds and values are keyed on the absolute
// user ID, exactly like `lolohasim loadgen -partition`, so splitting the
// users across connections or leaves sends byte for byte what one node
// fed every partition would receive.
type wire struct {
	proto longitudinal.Protocol
	n     int
	parts [][2]int // [lo, hi) user ranges, one per connection or leaf
	regs  []longitudinal.Registration
	// batches[d][p] holds partition p's batches for dataset round d. The
	// round-0 batches carry registration columns, so they enroll their
	// users inline.
	batches [][][][]byte
}

// partitions splits [0, n) into k contiguous near-equal ranges.
func partitions(n, k int) [][2]int {
	out := make([][2]int, k)
	for i := range out {
		out[i] = [2]int{i * n / k, (i + 1) * n / k}
	}
	return out
}

// newDataset builds the named §5.1 dataset; n and tau override the
// paper's sizes when positive. Both generators draw row by row, so a
// shorter tau yields a prefix of the longer dataset's rounds.
func newDataset(name string, n, tau int, seed uint64) (*datasets.Dataset, error) {
	switch name {
	case "syn":
		return datasets.Syn(datasets.SynConfig{N: n, Tau: tau, Seed: seed}), nil
	case "adult":
		return datasets.Adult(datasets.AdultConfig{N: n, Tau: tau, Seed: seed}), nil
	}
	return nil, fmt.Errorf("unknown dataset %q", name)
}

// clientSeed is the per-user client seed; WithCohort(n, seed) derives
// its clients the same way, so every workload's user u is one client.
func clientSeed(seed uint64, u int) uint64 { return randsrc.Derive(seed, uint64(u)) }

// genWire runs every user's client over dataset rounds [0, rounds) in
// order and packs the payloads into batches of batchSize per partition.
// Report generation of each batch is recorded as a core.append_report
// span. injectBad appends a report from a user that never enrolled to
// the first batch of round 1, which the server must reject.
func genWire(proto longitudinal.Protocol, ds *datasets.Dataset, seed uint64, rounds, nparts, batchSize int,
	injectBad bool, tr *tracer) (*wire, error) {
	stride, ok := longitudinal.ColumnarStrideOf(proto)
	if !ok {
		return nil, fmt.Errorf("%s has no columnar tallier", proto.Name())
	}
	n := ds.N()
	w := &wire{proto: proto, n: n, parts: partitions(n, nparts), regs: make([]longitudinal.Registration, n)}
	clients := make([]longitudinal.AppendReporter, n)
	for u := range clients {
		cl, ok := proto.NewClient(clientSeed(seed, u)).(longitudinal.AppendReporter)
		if !ok {
			return nil, fmt.Errorf("%s client lacks AppendReport", proto.Name())
		}
		clients[u] = cl
		w.regs[u] = cl.WireRegistration()
	}
	hash := longitudinal.SpecHashOf(proto)
	steady, err := longitudinal.NewColumnarWriter(hash, stride)
	if err != nil {
		return nil, err
	}
	enroll, err := longitudinal.NewColumnarWriter(hash, stride)
	if err != nil {
		return nil, err
	}
	if err := enroll.WithRegistrations(len(w.regs[0].Sampled)); err != nil {
		return nil, err
	}
	pay := make([]byte, 0, batchSize*stride)
	w.batches = make([][][][]byte, rounds)
	for t := 0; t < rounds; t++ {
		w.batches[t] = make([][][]byte, nparts)
		for p, rg := range w.parts {
			for lo := rg[0]; lo < rg[1]; lo += batchSize {
				hi := min(lo+batchSize, rg[1])
				start := time.Now()
				pay = pay[:0]
				for u := lo; u < hi; u++ {
					pay = clients[u].AppendReport(pay, ds.Value(u, t))
				}
				tr.add(0, 0, t, "core.append_report", start, time.Now(), hi-lo)
				if len(pay) != (hi-lo)*stride {
					return nil, fmt.Errorf("%s payloads are not %d bytes each", proto.Name(), stride)
				}
				cw := steady
				if t == 0 {
					cw = enroll
				}
				cw.Reset()
				cw.SetRound(uint32(t))
				for u := lo; u < hi; u++ {
					cell := pay[(u-lo)*stride : (u-lo+1)*stride]
					if t == 0 {
						err = cw.AddWithRegistration(u, cell, w.regs[u])
					} else {
						err = cw.Add(u, cell)
					}
					if err != nil {
						return nil, err
					}
				}
				if injectBad && t == 1 && lo == rg[0] && p == 0 {
					if err := cw.Add(n+1_000_000, pay[:stride]); err != nil {
						return nil, err
					}
				}
				w.batches[t][p] = append(w.batches[t][p], cw.AppendTo(make([]byte, 0, cw.EncodedSize())))
			}
		}
	}
	return w, nil
}
