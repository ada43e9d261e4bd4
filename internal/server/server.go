// Package server implements the wire-level collection service on top of
// the longitudinal protocols: users enroll once with their registration
// metadata (hash seed for LOLOHA, sampled buckets for dBitFlipPM, nothing
// for UE/GRR chains), then stream fixed-size round payloads as raw bytes.
// The service tallies and publishes per-round results.
//
// Stream is the production-facing face of the library: in-process cohort
// rounds (WithCohort) and wire ingestion run the same tally, and tests
// check every path against internal/reference.
//
// Payload ingestion is tally-direct: the protocol must implement
// longitudinal.TallyProtocol, whose WireTallier validates registrations
// and tallies payload bits straight into the shard aggregators with zero
// steady-state allocations. Every protocol in this repository does, and
// nothing in this package enumerates protocol types.
package server

import "github.com/loloha-ldp/loloha/internal/longitudinal"

// Registration carries a user's one-time enrollment metadata.
type Registration = longitudinal.Registration
