package attack

import (
	"testing"

	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/randsrc"
)

// synSequence builds a τ×n matrix of uniform values with change prob pch.
func synSequence(n, k, tau int, pch float64, seed uint64) [][]int {
	r := randsrc.NewSeeded(seed)
	values := make([][]int, tau)
	values[0] = make([]int, n)
	for u := range values[0] {
		values[0][u] = r.Intn(k)
	}
	for t := 1; t < tau; t++ {
		row := make([]int, n)
		for u := range row {
			if r.Bernoulli(pch) {
				row[u] = r.Intn(k)
			} else {
				row[u] = values[t-1][u]
			}
		}
		values[t] = row
	}
	return values
}

func TestDetectionFullSamplingIsTotal(t *testing.T) {
	// Table 2, d = b column: with every bucket sampled, two different
	// buckets share a memoized b-bit vector only with vanishing
	// probability, so essentially all changes are detected.
	const k, b = 60, 30
	proto, err := longitudinal.NewDBitFlipPM(k, b, b, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	values := synSequence(400, k, 25, 0.3, 11)
	res, err := DetectDBitFlipChanges(proto, values, 77)
	if err != nil {
		t.Fatal(err)
	}
	if res.UsersWithChanges == 0 {
		t.Fatal("no users changed; test vacuous")
	}
	if rate := res.FullyDetectedRate(); rate < 0.95 {
		t.Errorf("d=b fully-detected rate %v, want ~1", rate)
	}
}

func TestDetectionSingleBitIsRare(t *testing.T) {
	// Table 2, d = 1 column: one memoized bit collides across buckets with
	// probability ~1/2 per change, so detecting *all* of a user's many
	// changes is rare.
	const k, b = 60, 30
	proto, err := longitudinal.NewDBitFlipPM(k, b, 1, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	values := synSequence(400, k, 25, 0.3, 12)
	res, err := DetectDBitFlipChanges(proto, values, 78)
	if err != nil {
		t.Fatal(err)
	}
	if rate := res.FullyDetectedRate(); rate > 0.05 {
		t.Errorf("d=1 fully-detected rate %v, want ~0", rate)
	}
	// Individual points are still detected about half the time.
	if pr := res.PointDetectionRate(); pr < 0.3 || pr > 0.7 {
		t.Errorf("d=1 point detection rate %v, want ~0.5", pr)
	}
}

func TestDetectionNoChangesNoDetections(t *testing.T) {
	proto, err := longitudinal.NewDBitFlipPM(40, 10, 4, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Constant sequences: zero change points, zero users with changes.
	row := make([]int, 50)
	for u := range row {
		row[u] = u % 40
	}
	values := [][]int{row, row, row}
	res, err := DetectDBitFlipChanges(proto, values, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.ChangePoints != 0 || res.UsersWithChanges != 0 {
		t.Errorf("constant data produced %d change points", res.ChangePoints)
	}
	if res.FullyDetectedRate() != 0 {
		t.Error("vacuous full detection reported")
	}
}

func TestDetectionWithinBucketMovesInvisible(t *testing.T) {
	// Moves inside one bucket change nothing: no change points counted.
	proto, err := longitudinal.NewDBitFlipPM(100, 10, 10, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Bucket width is 10: values 0..9 share bucket 0.
	values := [][]int{
		make([]int, 30), make([]int, 30), make([]int, 30),
	}
	for u := 0; u < 30; u++ {
		values[0][u] = 0
		values[1][u] = 5 // same bucket
		values[2][u] = 9 // same bucket
	}
	res, err := DetectDBitFlipChanges(proto, values, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.ChangePoints != 0 {
		t.Errorf("within-bucket moves produced %d change points", res.ChangePoints)
	}
}

func TestDetectionEmptyMatrixRejected(t *testing.T) {
	proto, _ := longitudinal.NewDBitFlipPM(10, 5, 2, 1)
	if _, err := DetectDBitFlipChanges(proto, nil, 1); err == nil {
		t.Error("empty matrix accepted")
	}
}

func TestAveragingAttackSucceedsOnFreshNoise(t *testing.T) {
	a, err := NewAveragingAttack(10, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	r := randsrc.NewSeeded(100)
	// With many repeated fresh randomizations the ML guess nails the value.
	rate := a.SuccessRateFresh(3, 200, 200, r)
	if rate < 0.99 {
		t.Errorf("fresh-noise attack success %v, want ~1", rate)
	}
}

func TestAveragingAttackDefeatedByMemoization(t *testing.T) {
	a, err := NewAveragingAttack(10, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	r := randsrc.NewSeeded(101)
	// Memoization pins the attack at the single-report keep probability p,
	// no matter how many rounds the adversary observes.
	p := 2.718281828 / (2.718281828 + 9) // e^1/(e^1+k-1)
	rate := a.SuccessRateMemoized(3, 200, 3000, r)
	if rate > p+0.05 || rate < p-0.05 {
		t.Errorf("memoized attack success %v, want ~p = %v", rate, p)
	}
}

func TestAveragingAttackGapGrowsWithTau(t *testing.T) {
	a, err := NewAveragingAttack(8, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	r := randsrc.NewSeeded(102)
	short := a.SuccessRateFresh(2, 3, 1500, r)
	long := a.SuccessRateFresh(2, 100, 1500, r)
	if long <= short {
		t.Errorf("fresh attack did not improve with tau: %v -> %v", short, long)
	}
}

// TestDetectionResultPinned pins the Table 2 adversary's full result on a
// fixed seed and value matrix, for d = 1, 3 and b. The expected values
// were recorded when the adversary compared boxed reports; comparing the
// wire payloads byte for byte must not move them.
func TestDetectionResultPinned(t *testing.T) {
	const k, b = 60, 30
	values := synSequence(300, k, 20, 0.3, 5)
	for _, tc := range []struct {
		d    int
		want DetectionResult
	}{
		{1, DetectionResult{Users: 300, UsersWithChanges: 300, FullyDetected: 12, ChangePoints: 1599, DetectedPoints: 673}},
		{3, DetectionResult{Users: 300, UsersWithChanges: 300, FullyDetected: 108, ChangePoints: 1599, DetectedPoints: 1265}},
		{b, DetectionResult{Users: 300, UsersWithChanges: 300, FullyDetected: 300, ChangePoints: 1599, DetectedPoints: 1599}},
	} {
		proto, err := longitudinal.NewDBitFlipPM(k, b, tc.d, 2.0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DetectDBitFlipChanges(proto, values, 77)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("d=%d: %+v, want %+v", tc.d, got, tc.want)
		}
	}
}
