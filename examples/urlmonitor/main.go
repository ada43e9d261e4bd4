// URL monitor: RAPPOR's original use case — which homepage do users have
// configured? — over a *string* domain, demonstrating two things:
//
//  1. the Codec for non-integer domains, and
//
//  2. why memoization exists: against a naive client that re-randomizes
//     fresh every round, the server can run an averaging attack and
//     recover individual users' homepages; against LOLOHA it cannot.
//
//     go run ./examples/urlmonitor
package main

import (
	"fmt"
	"log"
	"math/rand"

	loloha "github.com/loloha-ldp/loloha"
)

var pages = []string{
	"search.example", "news.example", "mail.example", "video.example",
	"social.example", "shop.example", "wiki.example", "weather.example",
	"sports.example", "finance.example", "games.example", "maps.example",
}

const (
	users  = 3000
	rounds = 60
	epsInf = 2.0
	eps1   = 1.0
	// attackRounds is how long the averaging adversary observes; the
	// attack's whole point is that more observations keep helping when
	// noise is fresh — and stop helping when it is memoized.
	attackRounds = 2000
)

func main() {
	codec, err := loloha.NewCodec(pages)
	if err != nil {
		log.Fatal(err)
	}
	k := codec.Size()

	proto, err := loloha.NewBiLOLOHA(k, epsInf, eps1)
	if err != nil {
		log.Fatal(err)
	}
	stream, err := loloha.NewStream(proto, loloha.WithCohort(users, 3))
	if err != nil {
		log.Fatal(err)
	}

	// Skewed popularity; homepages rarely change.
	rng := rand.New(rand.NewSource(17))
	home := make([]int, users)
	for u := range home {
		home[u] = zipf(rng, k)
	}

	var est []float64
	for t := 0; t < rounds; t++ {
		for u := range home {
			if rng.Float64() < 0.02 { // occasional homepage change
				home[u] = zipf(rng, k)
			}
		}
		values := make([]int, users)
		copy(values, home)
		res, err := stream.Collect(values)
		if err != nil {
			log.Fatal(err)
		}
		est = res.Raw
	}

	truth := make([]float64, k)
	for _, v := range home {
		truth[v] += 1.0 / float64(users)
	}
	fmt.Println("estimated homepage shares after", rounds, "rounds:")
	fmt.Println("page              truth   estimate")
	for i := 0; i < k; i++ {
		fmt.Printf("%-16s  %.3f   %+.3f\n", codec.Value(i), truth[i], est[i])
	}
	fmt.Printf("\nworst user ε̌: %.2f (cap %.1f) after %d rounds\n",
		stream.MaxPrivacySpent(), proto.LongitudinalBudget(), rounds)

	// ----------------------------------------------------------------
	// The averaging attack: why fresh per-round noise is not enough.
	fmt.Println("\n--- averaging attack demo (single user, value =", pages[2], ") ---")
	grr, err := loloha.NewGRR(k, eps1)
	if err != nil {
		log.Fatal(err)
	}
	target, _ := codec.Index(pages[2])

	// Naive client: fresh GRR every round. The server counts the mode.
	counts := make([]int, k)
	attackRng := rand.New(rand.NewSource(5))
	for t := 0; t < attackRounds; t++ {
		counts[naiveGRR(grr, target, attackRng)]++
	}
	fmt.Printf("fresh noise:  after %d rounds the mode of the reports is %q (true: %q)\n",
		attackRounds, pages[argmax(counts)], pages[target])

	// LOLOHA client: the adversary sees IRR re-randomizations of ONE
	// memoized cell of a 2-cell hash — the mode identifies at most the
	// user's hash cell, which ~half the domain shares. The client emits
	// wire bytes through the allocation-free AppendReport into one reused
	// buffer — what a real device loop looks like.
	cl := proto.NewClient(1234)
	cellCounts := make([]int, 2)
	var wire []byte
	for t := 0; t < attackRounds; t++ {
		wire = cl.AppendReport(wire[:0], target)
		cellCounts[int(wire[0])&1]++
	}
	fmt.Printf("LOLOHA:       after %d rounds the adversary learns one hash cell (counts %v);\n",
		attackRounds, cellCounts)
	fmt.Printf("              ~%d of %d pages share that cell — the homepage stays hidden.\n", k/2, k)
}

// naiveGRR applies one fresh GRR round (no memoization) — the anti-pattern.
func naiveGRR(grr *loloha.GRR, v int, rng *rand.Rand) int {
	// Drive the library mechanism with an ad-hoc stream for the demo.
	if rng.Float64() < grr.Params().P {
		return v
	}
	x := rng.Intn(grr.K() - 1)
	if x >= v {
		x++
	}
	return x
}

func zipf(rng *rand.Rand, k int) int {
	for {
		v := int(rng.ExpFloat64() * 2.5)
		if v < k {
			return v
		}
	}
}

func argmax(counts []int) int {
	best := 0
	for v, c := range counts {
		if c > counts[best] {
			best = v
		}
	}
	return best
}
