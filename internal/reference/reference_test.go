package reference_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/loloha-ldp/loloha/internal/core"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/randsrc"
	"github.com/loloha-ldp/loloha/internal/reference"
)

// unknownProto is a protocol type the reference has never heard of.
type unknownProto struct{ longitudinal.Protocol }

func (unknownProto) Name() string { return "unknown" }

// buildFamily builds a registered family over domain size k from its
// reference.Spec.
func buildFamily(t *testing.T, fam string, k int) longitudinal.Protocol {
	t.Helper()
	spec, err := reference.Spec(fam, k)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := spec.Build()
	if err != nil {
		t.Fatalf("%s: %v", fam, err)
	}
	return proto
}

// TestNewRejectsUnknownProtocol: a family without a reference fails
// loudly instead of being checked against nothing.
func TestNewRejectsUnknownProtocol(t *testing.T) {
	if _, err := reference.New(unknownProto{}); err == nil {
		t.Fatal("reference.New accepted a protocol type it has no reference for")
	}
}

// TestUEKnownAnswer decodes hand-packed UE payloads (bit i is bit i%8 of
// byte i/8) and checks Eq. (3) in its (ps, qs) form, f̂ = (C/n − qs)/(ps −
// qs), which the reference does not use.
func TestUEKnownAnswer(t *testing.T) {
	proto, err := longitudinal.NewRAPPOR(10, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := reference.New(proto)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range [][]byte{{0b0000_0101, 0b10}, {0b0000_0001, 0b00}, {0b1000_0000, 0b11}} {
		if err := ref.Add(p, longitudinal.Registration{}); err != nil {
			t.Fatal(err)
		}
	}
	for label, p := range map[string][]byte{
		"short":    {0x01},
		"long":     {0x01, 0x00, 0x00},
		"padding":  {0x00, 0b100},
		"nothing":  nil,
		"all-ones": {0xFF, 0xFF},
	} {
		if err := ref.Add(p, longitudinal.Registration{}); err == nil {
			t.Errorf("%s payload %x accepted", label, p)
		}
	}
	counts, n, est := ref.EndRound()
	if want := []int64{2, 0, 1, 0, 0, 0, 0, 1, 1, 2}; n != 3 || !slices.Equal(counts, want) {
		t.Fatalf("n=%d counts %v, want n=3 counts %v", n, counts, want)
	}
	c := proto.Params()
	for v, cnt := range counts {
		want := (float64(cnt)/3 - c.QS()) / (c.PS() - c.QS())
		if math.Abs(est[v]-want) > 1e-12 {
			t.Errorf("est[%d] = %v, want %v", v, est[v], want)
		}
	}
}

// TestGRRValueKnownAnswer: scalar payloads are little-endian in the fewest
// whole bytes that hold k−1, and values at or past k are rejected.
func TestGRRValueKnownAnswer(t *testing.T) {
	for _, tc := range []struct {
		k    int
		good [][]byte
		want []int // the counted values, sorted
		bad  [][]byte
	}{
		{k: 2, good: [][]byte{{1}, {0}, {1}}, want: []int{0, 1, 1}, bad: [][]byte{{2}, {0, 0}, {}}},
		{k: 256, good: [][]byte{{255}, {7}}, want: []int{7, 255}, bad: [][]byte{{0, 0}}},
		{k: 257, good: [][]byte{{0, 1}, {1, 0}}, want: []int{1, 256}, bad: [][]byte{{1, 1}, {1}}},
		{k: 70000, good: [][]byte{{0x6F, 0x11, 0x01}}, want: []int{69999}, bad: [][]byte{{0x70, 0x11, 0x01}, {0, 0}}},
	} {
		proto, err := longitudinal.NewLGRR(tc.k, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := reference.New(proto)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range tc.good {
			if err := ref.Add(p, longitudinal.Registration{}); err != nil {
				t.Fatalf("k=%d: payload %x rejected: %v", tc.k, p, err)
			}
		}
		for _, p := range tc.bad {
			if err := ref.Add(p, longitudinal.Registration{}); err == nil {
				t.Fatalf("k=%d: payload %x accepted", tc.k, p)
			}
		}
		var got []int
		for v, c := range ref.Counts() {
			for range c {
				got = append(got, v)
			}
		}
		if !slices.Equal(got, tc.want) || ref.N() != len(tc.good) {
			t.Fatalf("k=%d: counted values %v over n=%d, want %v over n=%d", tc.k, got, ref.N(), tc.want, len(tc.good))
		}
	}
}

// TestLOLOHAKnownAnswer: a user's report supports exactly the candidates
// its registered hash maps onto the reported cell — the whole domain is
// partitioned by the g cells, so g reports of cells 0..g−1 from one user
// support every value once.
func TestLOLOHAKnownAnswer(t *testing.T) {
	const k, g = 100, 4
	proto, err := core.New(k, g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := reference.New(proto)
	if err != nil {
		t.Fatal(err)
	}
	reg := longitudinal.Registration{HashSeed: 0xC0FFEE}
	for x := 0; x < g; x++ {
		if err := ref.Add([]byte{byte(x)}, reg); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Add([]byte{g}, reg); err == nil {
		t.Fatal("cell g accepted")
	}
	for v, c := range ref.Counts() {
		if c != 1 {
			t.Fatalf("candidate %d supported %d times by a partition of its hash cells, want 1", v, c)
		}
	}
	// Eq. (3) with q′₁ = 1/g, in its (ps, qs) form.
	c := proto.Params()
	qs := c.P2/g + (1-1.0/g)*c.Q2
	ps := c.P1*c.P2 + (1-c.P1)*c.Q2
	_, n, est := ref.EndRound()
	for v := range est {
		if want := (1/float64(n) - qs) / (ps - qs); math.Abs(est[v]-want) > 1e-12 {
			t.Fatalf("est[%d] = %v, want %v", v, est[v], want)
		}
	}
}

// TestDBitKnownAnswer: bit l of the payload answers for sampled bucket l,
// padding bits past d are ignored, and the estimator is (C/n_eff −
// q)/(p − q) with n_eff = n·d/b.
func TestDBitKnownAnswer(t *testing.T) {
	const k, b, d, epsInf = 40, 10, 3, 2.0
	proto, err := longitudinal.NewDBitFlipPM(k, b, d, epsInf)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := reference.New(proto)
	if err != nil {
		t.Fatal(err)
	}
	reg := longitudinal.Registration{Sampled: []int{9, 0, 4}}
	for _, p := range [][]byte{{0b101}, {0b1111_1010}, {0b100}} {
		if err := ref.Add(p, reg); err != nil {
			t.Fatal(err)
		}
	}
	for label, r := range map[string]longitudinal.Registration{
		"too-few":  {Sampled: []int{9, 0}},
		"too-many": {Sampled: []int{9, 0, 4, 5}},
		"past-b":   {Sampled: []int{9, 0, b}},
		"negative": {Sampled: []int{-1, 0, 4}},
	} {
		if err := ref.Add([]byte{0b111}, r); err == nil {
			t.Errorf("%s registration accepted", label)
		}
	}
	if err := ref.Add([]byte{0b1, 0}, reg); err == nil {
		t.Error("2-byte payload accepted for d=3")
	}
	counts, n, est := ref.EndRound()
	if want := []int64{1, 0, 0, 0, 2, 0, 0, 0, 0, 1}; n != 3 || !slices.Equal(counts, want) {
		t.Fatalf("n=%d counts %v, want n=3 counts %v", n, counts, want)
	}
	e := math.Exp(epsInf / 2)
	p := e / (e + 1)
	nEff := 3.0 * d / b
	for j, c := range counts {
		if want := (float64(c)/nEff - (1 - p)) / (2*p - 1); math.Abs(est[j]-want) > 1e-12 {
			t.Errorf("est[%d] = %v, want %v", j, est[j], want)
		}
	}
}

// TestClientPayloadsDecode: every registered family has a reference, and
// its client payloads decode under it, with the support the layout allows — one
// value for L-GRR, at most d buckets for dBitFlipPM.
func TestClientPayloadsDecode(t *testing.T) {
	const k = 40
	for _, fam := range longitudinal.Families() {
		proto := buildFamily(t, fam, k)
		ref, err := reference.New(proto)
		if err != nil {
			t.Fatal(err)
		}
		var buf []byte
		for u := 0; u < 50; u++ {
			cl := proto.NewClient(randsrc.Derive(3, uint64(u)))
			buf = cl.AppendReport(buf[:0], u%k)
			before := slices.Clone(ref.Counts())
			if err := ref.Add(buf, cl.WireRegistration()); err != nil {
				t.Fatalf("%s user %d: client payload %x rejected: %v", fam, u, buf, err)
			}
			added := 0
			for v, c := range ref.Counts() {
				added += int(c - before[v])
			}
			switch {
			case fam == "L-GRR" && added != 1:
				t.Fatalf("%s: a report supported %d values, want 1", fam, added)
			case strings.Contains(fam, "BitFlipPM") && added > proto.(*longitudinal.DBitFlipPM).D():
				t.Fatalf("%s: a report supported %d buckets, more than d", fam, added)
			}
		}
	}
}

// TestOnlyTestsImportReference: no non-test file of the module imports
// this package, so the reference can never become a second engine.
func TestOnlyTestsImportReference(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	const self = "github.com/loloha-ldp/loloha/internal/reference"
	fset := token.NewFileSet()
	checked := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		checked++
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == self {
				t.Errorf("%s imports %s", path, self)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked < 50 {
		t.Fatalf("walked only %d non-test Go files under %s", checked, root)
	}
}
