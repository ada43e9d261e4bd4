package longitudinal

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/loloha-ldp/loloha/internal/randsrc"
)

// budgetsFromRaw maps fuzz bytes onto a valid (ε∞, ε1) pair.
func budgetsFromRaw(a, b uint8) (epsInf, eps1 float64) {
	epsInf = 0.2 + float64(a%60)/10 // 0.2 .. 6.1
	alpha := 0.05 + float64(b%90)/100
	return epsInf, alpha * epsInf
}

func TestQuickLSUECalibrationAlwaysValid(t *testing.T) {
	f := func(a, b uint8) bool {
		epsInf, eps1 := budgetsFromRaw(a, b)
		p, err := LSUEParams(epsInf, eps1)
		if err != nil {
			return false
		}
		return p.P1 > p.Q1 && p.P2 > p.Q2 &&
			p.P1 > 0 && p.P1 < 1 && p.P2 > 0 && p.P2 < 1 &&
			math.Abs(UEEpsOfChain(p)-eps1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestQuickLOSUECalibrationAlwaysValid(t *testing.T) {
	f := func(a, b uint8) bool {
		epsInf, eps1 := budgetsFromRaw(a, b)
		p, err := LOSUEParams(epsInf, eps1)
		if err != nil {
			return false
		}
		return p.P1 == 0.5 && p.P2 > p.Q2 &&
			math.Abs(UEEpsOfChain(p)-eps1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestQuickEpsIRRWithinBounds(t *testing.T) {
	// 0 < εIRR always; and εIRR < ε1 + something sane... specifically the
	// IRR round must be noisier than "no noise": εIRR is finite and
	// positive; and the chain identity holds.
	f := func(a, b uint8) bool {
		epsInf, eps1 := budgetsFromRaw(a, b)
		epsIRR, err := EpsIRR(epsInf, eps1)
		if err != nil {
			return false
		}
		if !(epsIRR > 0) || math.IsInf(epsIRR, 0) || math.IsNaN(epsIRR) {
			return false
		}
		lhs := math.Exp(epsIRR)*math.Exp(epsInf) + 1
		rhs := math.Exp(eps1) * (math.Exp(epsIRR) + math.Exp(epsInf))
		return math.Abs(lhs-rhs) < 1e-6*lhs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestQuickEstimateLRecoverFrequency(t *testing.T) {
	// For any valid chain and any f in [0,1], plugging the expected count
	// into Eq. (3) returns f.
	f := func(a, b uint8, fRaw uint8) bool {
		epsInf, eps1 := budgetsFromRaw(a, b)
		p, err := LOSUEParams(epsInf, eps1)
		if err != nil {
			return false
		}
		freq := float64(fRaw) / 255
		const n = 100000
		count := float64(n) * (freq*p.PS() + (1-freq)*p.QS())
		return math.Abs(p.EstimateL(count, n)-freq) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestQuickClientReportsAlwaysDecodable(t *testing.T) {
	// Random protocol configs: the client's wire output must round-trip.
	f := func(seed uint64, kRaw, vRaw uint8) bool {
		k := int(kRaw%60) + 2
		v := int(vRaw) % k
		p, err := NewLGRR(k, 2.0, 1.0)
		if err != nil {
			return false
		}
		payload := p.NewClient(seed).AppendReport(nil, v)
		agg := p.NewAggregator()
		err = p.WireTallier().TallyWire(agg, 0, payload, Registration{})
		return err == nil && agg.Tally().N == 1 && agg.Tally().Counts[payload[0]] == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickLedgerNeverExceedsCap(t *testing.T) {
	// Whatever the sequence, ε̌ ≤ cap for every protocol.
	r := randsrc.NewSeeded(55)
	f := func(seed uint64, seqRaw []uint8) bool {
		const k, b, d = 30, 10, 3
		protos := []Client{}
		if p, err := NewRAPPOR(k, 1.5, 0.5); err == nil {
			protos = append(protos, p.NewClient(seed))
		}
		if p, err := NewDBitFlipPM(k, b, d, 1.5); err == nil {
			protos = append(protos, p.NewClient(seed))
		}
		caps := []float64{float64(k) * 1.5, float64(d+1) * 1.5}
		for i, cl := range protos {
			for _, s := range seqRaw {
				cl.Charge(int(s) % k)
			}
			cl.Charge(r.Intn(k))
			if cl.PrivacySpent() > caps[i]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickChargeReportLedgerEquivalence(t *testing.T) {
	// Charge(v) and AppendReport(dst, v) must leave the ledger in the same
	// state.
	f := func(seed uint64, seqRaw []uint8) bool {
		const k = 24
		pa, err := NewLOSUE(k, 2, 1)
		if err != nil {
			return false
		}
		chargeOnly := pa.NewClient(seed)
		reporting := pa.NewClient(seed)
		for _, s := range seqRaw {
			v := int(s) % k
			chargeOnly.Charge(v)
			reporting.AppendReport(nil, v)
			if math.Abs(chargeOnly.PrivacySpent()-reporting.PrivacySpent()) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
