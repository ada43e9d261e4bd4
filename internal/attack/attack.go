// Package attack implements the adversary models the paper evaluates:
//
//   - Change detection against dBitFlipPM (Table 2): because dBitFlipPM has
//     no instantaneous round, the server sees the memoized response itself;
//     a report that differs from the previous round's proves the user's
//     bucket changed. The paper measures the percentage of users for whom
//     *all* bucket-change points were detected this way.
//
//   - The averaging attack against naive re-randomization (§2.4): without
//     memoization, fresh noise at every round lets the server average
//     reports and recover the user's value — the reason memoization exists.
package attack

import (
	"bytes"
	"fmt"

	"github.com/loloha-ldp/loloha/internal/freqoracle"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/randsrc"
)

// DetectionResult summarizes a change-detection experiment over a cohort.
type DetectionResult struct {
	// Users is the cohort size.
	Users int
	// UsersWithChanges counts users whose bucket sequence changed at least
	// once (users with constant sequences are excluded from the rate, as a
	// "fully detected" claim is vacuous for them).
	UsersWithChanges int
	// FullyDetected counts users for whom every bucket-change point
	// produced a differing report.
	FullyDetected int
	// ChangePoints and DetectedPoints count individual change events.
	ChangePoints, DetectedPoints int
}

// FullyDetectedRate returns the Table 2 metric: the fraction of users (with
// at least one change) whose change points were all detected.
func (r DetectionResult) FullyDetectedRate() float64 {
	if r.UsersWithChanges == 0 {
		return 0
	}
	return float64(r.FullyDetected) / float64(r.UsersWithChanges)
}

// PointDetectionRate returns the fraction of individual change points that
// were detected.
func (r DetectionResult) PointDetectionRate() float64 {
	if r.ChangePoints == 0 {
		return 0
	}
	return float64(r.DetectedPoints) / float64(r.ChangePoints)
}

// DetectDBitFlipChanges runs the Table 2 worst-case adversary: it replays
// each user's value sequence through a dBitFlipPM client and compares
// consecutive round payloads byte for byte (the payload is the memoized
// d-bit response itself). values[t][u] is user u's value at round t; seeds
// supplies one PRNG seed per user.
func DetectDBitFlipChanges(proto *longitudinal.DBitFlipPM, values [][]int, seedBase uint64) (DetectionResult, error) {
	if len(values) == 0 || len(values[0]) == 0 {
		return DetectionResult{}, fmt.Errorf("attack: empty value matrix")
	}
	tau := len(values)
	n := len(values[0])
	z := proto.Bucketizer()
	var res DetectionResult
	res.Users = n
	var prevRep, rep []byte
	for u := 0; u < n; u++ {
		cl := proto.NewClient(randsrc.Derive(seedBase, uint64(u)))
		prevRep = cl.AppendReport(prevRep[:0], values[0][u])
		prevBucket := z.Bucket(values[0][u])
		changed, allDetected := false, true
		for t := 1; t < tau; t++ {
			rep = cl.AppendReport(rep[:0], values[t][u])
			bucket := z.Bucket(values[t][u])
			if bucket != prevBucket {
				changed = true
				res.ChangePoints++
				if !bytes.Equal(rep, prevRep) {
					res.DetectedPoints++
				} else {
					allDetected = false
				}
			}
			// Swap the buffers: the next report must not overwrite this one.
			prevRep, rep = rep, prevRep
			prevBucket = bucket
		}
		if changed {
			res.UsersWithChanges++
			if allDetected {
				res.FullyDetected++
			}
		}
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Averaging attack.

// AveragingAttack models the adversary of §2.4 against a *naively* repeated
// GRR randomizer (fresh noise each round, no memoization): after tau
// observations of the same true value it returns the maximum-likelihood
// value, the count of its observations, and whether the attack recovered
// the truth.
type AveragingAttack struct {
	grr *freqoracle.GRR
}

// NewAveragingAttack returns an attack against a GRR randomizer over
// domain size k at level eps.
func NewAveragingAttack(k int, eps float64) (*AveragingAttack, error) {
	grr, err := freqoracle.NewGRR(k, eps)
	if err != nil {
		return nil, err
	}
	return &AveragingAttack{grr: grr}, nil
}

// RunFresh simulates tau fresh randomizations of trueValue and returns the
// adversary's maximum-likelihood guess. With fresh noise the guess
// converges to the true value as tau grows (the attack succeeds).
func (a *AveragingAttack) RunFresh(trueValue, tau int, r *randsrc.Rand) int {
	counts := make([]int, a.grr.K())
	for t := 0; t < tau; t++ {
		counts[a.grr.Perturb(trueValue, r)]++
	}
	return argmax(counts)
}

// RunMemoized simulates the same adversary against a *memoized* randomizer:
// the response is drawn once and replayed, so the observation multiset is
// degenerate and the ML guess is just the memoized response — correct only
// with probability p, independent of tau (the attack fails to improve).
func (a *AveragingAttack) RunMemoized(trueValue, tau int, r *randsrc.Rand) int {
	memo := a.grr.Perturb(trueValue, r)
	counts := make([]int, a.grr.K())
	for t := 0; t < tau; t++ {
		counts[memo]++
	}
	return argmax(counts)
}

// SuccessRateFresh estimates the attack success probability over trials
// independent users with fresh randomization.
func (a *AveragingAttack) SuccessRateFresh(trueValue, tau, trials int, r *randsrc.Rand) float64 {
	wins := 0
	for i := 0; i < trials; i++ {
		if a.RunFresh(trueValue, tau, r) == trueValue {
			wins++
		}
	}
	return float64(wins) / float64(trials)
}

// SuccessRateMemoized estimates the attack success probability against
// memoized responses; it stays pinned near the single-report keep
// probability p however large tau is.
func (a *AveragingAttack) SuccessRateMemoized(trueValue, tau, trials int, r *randsrc.Rand) float64 {
	wins := 0
	for i := 0; i < trials; i++ {
		if a.RunMemoized(trueValue, tau, r) == trueValue {
			wins++
		}
	}
	return float64(wins) / float64(trials)
}

func argmax(counts []int) int {
	best, bestC := 0, counts[0]
	for v, c := range counts {
		if c > bestC {
			best, bestC = v, c
		}
	}
	return best
}
