package longitudinal

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Registration carries a user's one-time enrollment metadata: everything a
// tallier needs beyond the per-round payload bytes. A production
// deployment ships it once at enrollment and then streams fixed-size
// round payloads (Client.AppendReport) that a WireTallier tallies in
// place.
type Registration struct {
	// HashSeed identifies a LOLOHA user's hash function (Algorithm 1,
	// "Send H").
	HashSeed uint64
	// Sampled lists a dBitFlipPM user's fixed sampled buckets.
	Sampled []int
}

// Canonical binary encoding for Registration — the enrollment half of the
// wire contract, so a networked front end can carry enrollment over the
// same socket as reports. The layout is fixed-width and positional, hence
// canonical: a Registration has exactly one encoding and every valid
// encoding re-encodes to the same bytes.
//
//	u64 LE  HashSeed
//	u32 LE  len(Sampled)
//	u32 LE  Sampled[0] … Sampled[len-1]
//
// A LOLOHA user ships only the first 12 bytes (seed + zero count), a
// dBitFlipPM user seed 0 plus its sampled buckets, UE/GRR chains the
// 12-byte empty form.

// MaxRegistrationSampled caps the encoded sampled-bucket count: dBitFlipPM
// samples d ≤ b buckets and real deployments use small d, so anything past
// this bound is a malformed or hostile frame, rejected before the decoder
// allocates.
const MaxRegistrationSampled = 1 << 20

// registrationFixedBytes is the seed + count prefix every encoding carries.
const registrationFixedBytes = 8 + 4

// RegistrationWireSize returns the exact encoded size of reg.
func RegistrationWireSize(reg Registration) int {
	return registrationFixedBytes + 4*len(reg.Sampled)
}

// AppendRegistration appends the canonical encoding of reg to dst and
// returns the extended buffer. It errors (returning dst unmodified) when
// reg is not encodable: more than MaxRegistrationSampled buckets, or a
// bucket index outside [0, 2³²).
func AppendRegistration(dst []byte, reg Registration) ([]byte, error) {
	if len(reg.Sampled) > MaxRegistrationSampled {
		return dst, fmt.Errorf("longitudinal: registration has %d sampled buckets, max %d",
			len(reg.Sampled), MaxRegistrationSampled)
	}
	for i, s := range reg.Sampled {
		if s < 0 || int64(s) > math.MaxUint32 {
			return dst, fmt.Errorf("longitudinal: sampled bucket %d out of wire range: %d", i, s)
		}
	}
	dst = binary.LittleEndian.AppendUint64(dst, reg.HashSeed)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(reg.Sampled)))
	for _, s := range reg.Sampled {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(s))
	}
	return dst, nil
}

// DecodeRegistration reads one canonical Registration encoding from the
// front of src, returning the registration and the remaining bytes.
// Truncated input and sampled counts above MaxRegistrationSampled are
// errors; the count is validated against the available bytes before any
// allocation, so hostile lengths cannot force a large allocation. The
// returned registration shares nothing with src.
func DecodeRegistration(src []byte) (Registration, []byte, error) {
	if len(src) < registrationFixedBytes {
		return Registration{}, nil, fmt.Errorf("longitudinal: short registration: %d bytes, want at least %d",
			len(src), registrationFixedBytes)
	}
	seed := binary.LittleEndian.Uint64(src)
	n := binary.LittleEndian.Uint32(src[8:])
	if n > MaxRegistrationSampled {
		return Registration{}, nil, fmt.Errorf("longitudinal: registration claims %d sampled buckets, max %d",
			n, MaxRegistrationSampled)
	}
	rest := src[registrationFixedBytes:]
	if uint64(len(rest)) < 4*uint64(n) {
		return Registration{}, nil, fmt.Errorf("longitudinal: short registration: %d sampled buckets need %d bytes, have %d",
			n, 4*uint64(n), len(rest))
	}
	reg := Registration{HashSeed: seed}
	if n > 0 {
		reg.Sampled = make([]int, n)
		for i := range reg.Sampled {
			reg.Sampled[i] = int(binary.LittleEndian.Uint32(rest[4*i:]))
		}
	}
	return reg, rest[4*n:], nil
}
