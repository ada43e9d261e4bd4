package main

import (
	"fmt"
	"time"

	"github.com/loloha-ldp/loloha/internal/server"
)

// collectSUT is the in-process paper-reproduction path: a Stream with an
// attached cohort, one Collect call per round. No socket, columnar codec
// or persist code runs.
type collectSUT struct {
	in     *inputs
	stream *server.Stream
	sub    <-chan server.RoundResult
	inject bool
	// rejected counts wire reports the stream refused.
	rejected uint64
}

func setupCollect(cfg config, in *inputs, _ string) (sut, error) {
	s, err := server.NewStream(in.proto, server.WithCohort(in.n, in.seed))
	if err != nil {
		return nil, err
	}
	c := &collectSUT{in: in, stream: s, sub: s.Subscribe(), inject: cfg.injectBad}
	// Round 0 is the warm-up: it builds the per-user hash tables and
	// fills the memo caches.
	if _, err := c.round(0, 0, nil); err != nil {
		s.Close()
		return nil, err
	}
	return c, nil
}

func (c *collectSUT) round(id, d int, tr *tracer) (roundObs, error) {
	if c.inject && id == 1 {
		// User 0 belongs to the cohort, so a wire report under its ID
		// would count it twice; the stream must refuse it.
		if c.stream.Ingest(0, []byte{0}) != nil {
			c.rejected++
		}
	}
	start := time.Now()
	res, err := c.stream.Collect(c.in.ds.Round(d))
	end := time.Now()
	if err != nil {
		return roundObs{}, err
	}
	tr.add(0, 0, id, "round", start, end, res.Reports)
	select {
	case pub := <-c.sub:
		if pub.Round != id {
			return roundObs{}, fmt.Errorf("subscriber got round %d, want %d", pub.Round, id)
		}
	default:
		return roundObs{}, fmt.Errorf("round %d was not published", id)
	}
	return roundObs{reports: res.Reports, latency: end.Sub(start), raw: res.Raw}, nil
}

func (c *collectSUT) status() (statusCounts, error) {
	return statusCounts{rejected: c.rejected, droppedRounds: c.stream.DroppedRounds()}, nil
}

func (c *collectSUT) close() { c.stream.Close() }
