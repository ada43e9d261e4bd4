package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around a public entry point. Spans of one round share Round;
// Parent links a call to the span that caused it (0 for a root). N is the
// number of work units the call covered (reports, batches, users), so
// per-unit costs are measured where the work happened.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Round  int    `json:"round"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory and writes them out once the run ends. A
// nil *tracer records nothing, which is how untraced windows run.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []span
	// sizes holds byte counts of encoded images, by name.
	sizes map[string][]float64
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), sizes: map[string][]float64{}} }

// size records the byte length of one encoded image.
func (t *tracer) size(name string, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sizes[name] = append(t.sizes[name], float64(n))
}

// medianSize returns the median recorded byte length of name.
func (t *tracer) medianSize(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return median(t.sizes[name])
}

// id reserves a span ID so children can name their parent before the
// parent's span ends.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span; id 0 allocates a fresh one.
func (t *tracer) add(id, parent int64, round int, name string, start, end time.Time, n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		t.next++
		id = t.next
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Round: round, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(), N: n,
	})
}

// timed runs f and records it as a span.
func (t *tracer) timed(parent int64, round int, name string, n int, f func() error) error {
	start := time.Now()
	err := f()
	t.add(0, parent, round, name, start, time.Now(), n)
	return err
}

// named returns the recorded spans with the given name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// perUnit returns the median over spans named name of duration per work
// unit, in the given unit of time; 0 when no such span was recorded.
func (t *tracer) perUnit(name string, unit time.Duration) float64 {
	var xs []float64
	for _, s := range t.named(name) {
		if s.N > 0 {
			xs = append(xs, float64(s.dur())/float64(unit)/float64(s.N))
		}
	}
	return median(xs)
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// coveredShare returns, over all spans named root, the share of their
// time covered by the union of their children's intervals.
func (t *tracer) coveredShare(root string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var total, covered int64
	for _, r := range t.spans {
		if r.Name != root {
			continue
		}
		total += r.End - r.Start
		kids := children[r.ID]
		slices.SortFunc(kids, func(a, b span) int { return int(a.Start - b.Start) })
		cur, curEnd := int64(-1), int64(-1)
		for _, k := range kids {
			s, e := max(k.Start, r.Start), min(k.End, r.End)
			if e <= s {
				continue
			}
			if s > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = s, e
			} else if e > curEnd {
				curEnd = e
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
	}
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}

// ---------------------------------------------------------------------------
// Statistics.

// quantile returns the q-quantile of xs (nearest rank on a sorted copy);
// 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durations converts latencies to float64 in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// ---------------------------------------------------------------------------
// Process samples: runtime/metrics counters, GC pauses and CPU time.

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

type procSample struct {
	at                 time.Time
	allocs, bytes, gcs uint64
	pauseNs            uint64
	cpu                time.Duration
}

func sampleProc() procSample {
	ms := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	var ru syscall.Rusage
	var cpu time.Duration
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return procSample{
		at:      time.Now(),
		allocs:  ms[0].Value.Uint64(),
		bytes:   ms[1].Value.Uint64(),
		gcs:     ms[2].Value.Uint64(),
		pauseNs: mem.PauseTotalNs,
		cpu:     cpu,
	}
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return float64(mem.HeapAlloc) / (1 << 20)
}

// ---------------------------------------------------------------------------
// Output.

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// print prints the human-readable metric lines, then the result as one
// JSON object on the last line of standard output.
func (o output) print() error {
	names := make([]string, 0, len(o.Metrics))
	for n := range o.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Printf("  %-34s %14.6g %s\n", n, o.Metrics[n].Value, o.Metrics[n].Unit)
	}
	b, err := json.Marshal(o)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
