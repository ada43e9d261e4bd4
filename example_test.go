package loloha_test

import (
	"fmt"

	loloha "github.com/loloha-ldp/loloha"
)

// Declarative construction: a serializable ProtocolSpec replaces the
// positional New* constructors, and a built protocol describes itself back
// via SpecOf — the spec round-trips through JSON, config files and RPCs.
func ExampleProtocolSpec() {
	spec, err := loloha.ParseSpec([]byte(`{"family":"BiLOLOHA","k":4,"eps_inf":1.0,"eps1":0.5}`))
	if err != nil {
		panic(err)
	}
	proto, err := spec.Build()
	if err != nil {
		panic(err)
	}
	stream, err := loloha.NewStream(proto, loloha.WithCohort(3, 42))
	if err != nil {
		panic(err)
	}
	res, err := stream.Collect([]int{0, 0, 1})
	if err != nil {
		panic(err)
	}
	back, _ := loloha.SpecOf(proto)
	fmt.Printf("%s over k=%d: %d estimates from %d reports\n",
		back.Family, back.K, len(res.Raw), res.Reports)
	// Output: BiLOLOHA over k=4: 4 estimates from 3 reports
}

// The simplest possible deployment: one stream, an attached simulation
// cohort, one round.
func ExampleNewStream() {
	proto, err := loloha.NewBiLOLOHA(4, 1.0, 0.5)
	if err != nil {
		panic(err)
	}
	stream, err := loloha.NewStream(proto, loloha.WithCohort(3, 42))
	if err != nil {
		panic(err)
	}
	res, err := stream.Collect([]int{0, 0, 1})
	if err != nil {
		panic(err)
	}
	fmt.Println(len(res.Raw), "estimates from", res.Reports, "reports; worst ε̌ =", stream.MaxPrivacySpent())
	// Output: 4 estimates from 3 reports; worst ε̌ = 1
}

// Streaming consumption: every closed round is published to subscribers
// as a RoundResult.
func ExampleStream_Subscribe() {
	proto, err := loloha.NewBiLOLOHA(4, 1.0, 0.5)
	if err != nil {
		panic(err)
	}
	stream, err := loloha.NewStream(proto, loloha.WithCohort(3, 42))
	if err != nil {
		panic(err)
	}
	results := stream.Subscribe()
	for round := 0; round < 2; round++ {
		if _, err := stream.Collect([]int{0, 1, 2}); err != nil {
			panic(err)
		}
	}
	stream.Close()
	for res := range results {
		fmt.Printf("round %d: %d reports\n", res.Round, res.Reports)
	}
	// Output:
	// round 0: 3 reports
	// round 1: 3 reports
}

// Choosing the reduced domain size: the closed-form optimum of Eq. (6).
func ExampleOptimalG() {
	fmt.Println(loloha.OptimalG(1.0, 0.5)) // high privacy: binary
	fmt.Println(loloha.OptimalG(5.0, 3.0)) // low privacy: larger g
	// Output:
	// 2
	// 17
}

// The longitudinal budget guarantee of Theorem 3.5.
func ExampleNewBiLOLOHA() {
	proto, err := loloha.NewBiLOLOHA(1000, 1.5, 0.5)
	if err != nil {
		panic(err)
	}
	fmt.Printf("k=%d compresses to g=%d; lifetime budget %.1f vs RAPPOR's %.1f\n",
		proto.K(), proto.G(), proto.LongitudinalBudget(), 1000*1.5)
	// Output: k=1000 compresses to g=2; lifetime budget 3.0 vs RAPPOR's 1500.0
}

// Wire-level ingestion: enroll once, then stream payload bytes — one
// report at a time or a whole batch per call.
func ExampleStream_IngestBatch() {
	proto, err := loloha.NewBiLOLOHA(8, 1.0, 0.5)
	if err != nil {
		panic(err)
	}
	stream, err := loloha.NewStream(proto)
	if err != nil {
		panic(err)
	}
	// Two devices:
	var userIDs []int
	var payloads [][]byte
	for u := 0; u < 2; u++ {
		client := proto.NewClient(uint64(7 + u))
		// Registration metadata travels once; payloads every round.
		if err := stream.Enroll(u, client.WireRegistration()); err != nil {
			panic(err)
		}
		userIDs = append(userIDs, u)
		payloads = append(payloads, client.AppendReport(nil, 3))
	}
	if err := stream.IngestBatch(userIDs, payloads); err != nil {
		panic(err)
	}
	res := stream.CloseRound()
	fmt.Println(len(res.Raw), "estimates from", stream.Enrolled(), "users")
	// Output: 8 estimates from 2 users
}
