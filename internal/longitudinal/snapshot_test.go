package longitudinal

import (
	"slices"
	"testing"
)

func TestTallyAddResetAndRejection(t *testing.T) {
	dst := Tally{Counts: []int64{1, 2, 3}, N: 4}
	src := Tally{Counts: []int64{10, -1, 0}, N: 5}
	if err := dst.Add(src); err != nil {
		t.Fatal(err)
	}
	if want := []int64{11, 1, 3}; !slices.Equal(dst.Counts, want) || dst.N != 9 {
		t.Fatalf("after Add: %v n=%d, want %v n=9", dst.Counts, dst.N, want)
	}
	if !slices.Equal(src.Counts, []int64{10, -1, 0}) || src.N != 5 {
		t.Fatalf("Add mutated its source: %v n=%d", src.Counts, src.N)
	}

	// A rejected tally leaves the receiver exactly as it was.
	for name, bad := range map[string]Tally{
		"short":          {Counts: []int64{1, 1}, N: 1},
		"long":           {Counts: []int64{1, 1, 1, 1}, N: 1},
		"negative-n":     {Counts: []int64{1, 1, 1}, N: -1},
		"nil-counts":     {N: 1},
		"empty-negative": {Counts: []int64{}, N: -3},
	} {
		if err := dst.Add(bad); err == nil {
			t.Errorf("%s: Add accepted %v n=%d", name, bad.Counts, bad.N)
		}
		if want := []int64{11, 1, 3}; !slices.Equal(dst.Counts, want) || dst.N != 9 {
			t.Fatalf("%s: rejected Add changed the tally to %v n=%d", name, dst.Counts, dst.N)
		}
	}

	dst.Reset()
	if !slices.Equal(dst.Counts, []int64{0, 0, 0}) || dst.N != 0 {
		t.Fatalf("after Reset: %v n=%d, want zeros of length 3", dst.Counts, dst.N)
	}
}

// TestTallyAliasesRoundState: every aggregator's Tally is its open round
// — reports land in it, adding into it is estimated by EndRound, and
// EndRound resets it.
func TestTallyAliasesRoundState(t *testing.T) {
	const k = 8
	lgrr, err := NewLGRR(k, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	main, shard := lgrr.NewAggregator(), lgrr.NewAggregator()
	cl := lgrr.NewClient(1)
	tally(t, lgrr, shard, 0, cl, 3)
	tally(t, lgrr, shard, 1, cl, 5)
	if got := shard.Tally().N; got != 2 {
		t.Fatalf("shard tally n = %d after 2 reports", got)
	}
	if err := main.Tally().Add(*shard.Tally()); err != nil {
		t.Fatal(err)
	}
	shard.Tally().Reset()
	for v, e := range shard.EndRound() {
		if e != 0 {
			t.Errorf("reset shard estimate[%d] = %v, want 0", v, e)
		}
	}
	want := lgrr.Params().EstimateAllL(slices.Clone(main.Tally().Counts), 2)
	if got := main.EndRound(); !slices.Equal(got, want) {
		t.Fatalf("EndRound = %v, want Eq. (3) of the added tally %v", got, want)
	}
	if tl := main.Tally(); tl.N != 0 || slices.ContainsFunc(tl.Counts, func(c int64) bool { return c != 0 }) {
		t.Fatalf("EndRound left round state %v n=%d", tl.Counts, tl.N)
	}
}
