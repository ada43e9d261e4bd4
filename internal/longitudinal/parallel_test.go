package longitudinal

import "testing"

// Every aggregator in this package must support sharded collection.
var (
	_ MergeableAggregator = (*chainUEAggregator)(nil)
	_ MergeableAggregator = (*lgrrAggregator)(nil)
	_ MergeableAggregator = (*dBitAggregator)(nil)
)

func TestMergeFoldsAndResetsRoundState(t *testing.T) {
	const k = 8
	proto, err := NewLGRR(k, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	main := proto.NewAggregator().(MergeableAggregator)
	fork := main.Fork()
	cl := proto.NewClient(1)
	fork.Add(0, cl.Report(3))
	fork.Add(1, cl.Report(5))
	main.Merge(fork)

	// The fork was reset: its next round starts empty.
	forkEst := fork.EndRound()
	for v, e := range forkEst {
		if e != 0 {
			t.Errorf("fork estimate[%d] = %v after merge, want 0 (round state not reset)", v, e)
		}
	}
	// The merge target carries the two reports.
	est := main.EndRound()
	sum := 0.0
	for _, e := range est {
		sum += e
	}
	if sum == 0 {
		t.Error("merge target lost the fork's reports")
	}
}

func TestMergePanicsOnForeignAggregator(t *testing.T) {
	lgrr, _ := NewLGRR(8, 2, 1)
	rappor, _ := NewRAPPOR(8, 2, 1)
	defer func() {
		if recover() == nil {
			t.Error("merging an aggregator of a different protocol did not panic")
		}
	}()
	lgrr.NewAggregator().(MergeableAggregator).Merge(rappor.NewAggregator())
}
