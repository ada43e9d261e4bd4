package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/loloha-ldp/loloha/internal/netserver"
)

// snapshotEvery is the round period of each leaf's full-state snapshot,
// as lolohad's -snapshot-every would take it.
const snapshotEvery = 10

// treeSUT is a collector tree: a root and two leaves, all in-process. Each
// leaf takes its partition's columnar batches over HTTP, spools every
// closed round's envelope to a real outbox directory and ships it to the
// root over TCP; the root closes the round once both leaves arrived.
type treeSUT struct {
	in     *inputs
	root   *node
	leaves []*node
	w      *watcher
	// hcs[i] is leaf i's loader: one HTTP connection for its batches and
	// its round closes.
	hcs []*http.Client
	// statusHC reads /v1/status after the run, off the loaders' connections.
	statusHC *http.Client
}

func setupTree(_ config, in *inputs, dir string) (sut, error) {
	t := &treeSUT{in: in, statusHC: newHTTPClient()}
	root, rootTCP, err := startNode(in, netserver.Config{
		AcceptMerges: true,
		ExpectLeaves: in.wl.parts,
		// The root closes a round as soon as every leaf arrived; the
		// deadline only has to exceed any round's spread.
		RoundDeadline: time.Minute,
	})
	if err != nil {
		return nil, err
	}
	t.root = root
	t.w = watch(root.stream)
	for i := 0; i < in.wl.parts; i++ {
		up, err := netserver.NewMergeSender(rootTCP, 10*time.Second)
		if err != nil {
			t.close()
			return nil, err
		}
		leafDir := filepath.Join(dir, fmt.Sprintf("leaf-%d", i))
		outbox := filepath.Join(leafDir, "outbox")
		if err := os.MkdirAll(outbox, 0o755); err != nil {
			up.Close()
			t.close()
			return nil, err
		}
		leaf, _, err := startNode(in, netserver.Config{
			Upstream: up, LeafID: fmt.Sprintf("leaf-%d", i), OutboxDir: outbox,
		})
		if err != nil {
			up.Close()
			t.close()
			return nil, err
		}
		leaf.dir = leafDir
		t.leaves = append(t.leaves, leaf)
		t.hcs = append(t.hcs, newHTTPClient())
	}
	if _, err := t.round(0, 0, nil); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

type reportsReply struct {
	Received int `json:"received"`
	Rejected int `json:"rejected"`
}

func (t *treeSUT) round(id, d int, tr *tracer) (roundObs, error) {
	rid := tr.id()
	start := time.Now()
	acks := make([][]time.Duration, len(t.leaves))
	err := parallel(len(t.leaves), func(i int) error {
		leaf, batches := t.leaves[i], t.in.sends[d][i]
		var snap sync.WaitGroup
		var snapErr error
		for j, body := range batches {
			if id > 0 && id%snapshotEvery == 0 && j == len(batches)/2 {
				// The snapshot runs beside this leaf's own ingest, as
				// lolohad's snapshot timer does, while the other leaf
				// keeps ingesting too.
				snap.Add(1)
				go func() {
					defer snap.Done()
					snapErr = tr.timed(rid, id, "snapshot", 1, func() error { return writeSnapshot(leaf) })
				}()
			}
			t0 := time.Now()
			var reply reportsReply
			err := postJSON(t.hcs[i], leaf.base+"/v1/reports", netserver.ContentTypeColumnar, body, &reply)
			if err != nil {
				snap.Wait()
				return err
			}
			t1 := time.Now()
			acks[i] = append(acks[i], t1.Sub(t0))
			tr.add(0, rid, id, "http.batch", t0, t1, reply.Received)
		}
		snap.Wait()
		return snapErr
	})
	if err != nil {
		return roundObs{}, err
	}
	closeAt := time.Now()
	err = parallel(len(t.leaves), func(i int) error {
		var reply closeReply
		if err := postJSON(t.hcs[i], t.leaves[i].base+"/v1/round/close", "application/json", nil, &reply); err != nil {
			return err
		}
		if reply.ShipError != "" {
			return fmt.Errorf("leaf %d: %s", i, reply.ShipError)
		}
		return nil
	})
	if err != nil {
		return roundObs{}, err
	}
	got, err := t.w.await(id)
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

// writeSnapshot replaces the leaf's state image the way lolohad does:
// temp file, fsync, rename.
func writeSnapshot(n *node) error {
	f, err := os.CreateTemp(n.dir, "stream.lss1.tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := n.stream.Snapshot(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, filepath.Join(n.dir, "stream.lss1"))
}

func (t *treeSUT) status() (statusCounts, error) {
	var st statusCounts
	for _, n := range append([]*node{t.root}, t.leaves...) {
		var ds daemonStatus
		if err := getJSON(t.statusHC, n.base+"/v1/status", &ds); err != nil {
			return st, err
		}
		st.rejected += ds.TCP.Rejected + ds.HTTP.Rejected
		st.mergeBad += ds.Merge.Rejected
		st.mergeDup += ds.Merge.Duplicates
		st.shipFailed += ds.Merge.ShipFailed
		st.shipRetries += ds.Merge.Retries
		st.partialRounds += ds.Merge.PartialRounds
		st.droppedRounds += n.stream.DroppedRounds()
	}
	return st, nil
}

func (t *treeSUT) close() {
	for _, l := range t.leaves {
		l.close()
	}
	if t.root != nil {
		t.root.close()
		<-t.w.done
	}
	for _, hc := range append(t.hcs, t.statusHC) {
		hc.CloseIdleConnections()
	}
}
