package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

type aggregate int

const (
	aggMedian aggregate = iota
	aggP90
)

// perLayer lists every per-layer metric a traced run reports. Each is the
// median of its samples (one per layer call, traced unit or request, as
// README.md lists), except serve.hit_p90_ms, the 90th percentile. README.md
// also maps each to the end-to-end metric it should move.
var perLayer = []struct {
	name, unit string
	agg        aggregate
}{
	{"scenario.load_ms", "ms", aggMedian},     // Load+Validate per document
	{"scenario.key_ms", "ms", aggMedian},      // Canonical+Key per point
	{"scenario.expand_ms", "ms", aggMedian},   // Expand per document
	{"scenario.encode_ms", "ms", aggMedian},   // EncodeResult per run
	{"topo.build_ms", "ms", aggMedian},        // Config.Build per run
	{"sim.events", "count", aggMedian},        // Processed() per unit
	{"sim.kernel_events", "count", aggMedian}, // raw kernel events per unit
	{"sim.events_per_pkt", "ev/pkt", aggMedian},
	{"sim.skipped_events", "count", aggMedian},
	{"sim.ns_per_event", "ns", aggMedian},
	{"sim.windows", "count", aggMedian},
	{"sim.self_cpu_s", "s", aggMedian},
	{"netem.self_cpu_s", "s", aggMedian},
	{"tcp.self_cpu_s", "s", aggMedian},
	{"attack.self_cpu_s", "s", aggMedian},
	{"runtime.self_cpu_s", "s", aggMedian},
	{"netem.bottleneck_drops", "count", aggMedian},
	{"tcp.segments_sent", "count", aggMedian},
	{"attack.packets_sent", "count", aggMedian},
	{"runcache.get_ms", "ms", aggMedian},
	{"runcache.put_ms", "ms", aggMedian},
	{"runcache.hits", "count", aggMedian},
	{"runcache.misses", "count", aggMedian},
	{"runcache.deduped", "count", aggMedian},
	{"runcache.bytes", "bytes", aggMedian},
	{"figures.compile_ms", "ms", aggMedian},
	{"figures.analytic_ms", "ms", aggMedian},
	{"serve.hit_ms", "ms", aggMedian},
	{"serve.hit_p90_ms", "ms", aggP90},
	{"serve.miss_ms", "ms", aggMedian},
	{"serve.batch_admit_ms", "ms", aggMedian},
	{"serve.artifact_get_ms", "ms", aggMedian},
	{"mem.alloc_mb", "MiB", aggMedian},
	{"mem.gc_cycles", "count", aggMedian},
	{"trace.overhead_pct", "%", aggMedian},
}

// span is one timed call into a layer, relative to the recorder's origin.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index of the enclosing span, -1 at the top
	Unit    int    `json:"unit"`   // timed unit the span belongs to
}

// count is one counter reading taken at a layer boundary.
type count struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  int     `json:"unit"`
}

// recorder keeps spans and counts in memory; writeFile flushes them when the
// run ends. Only the goroutine running the workload uses it; client
// goroutines hand their request timings back to it (recorder.add).
type recorder struct {
	origin time.Time
	spans  []span
	counts []count
	stack  []int
	unit   int
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) len() int { return len(r.spans) }

// setUnit tags subsequent spans and counts with a unit id.
func (r *recorder) setUnit(u int) { r.unit = u }

// begin opens a span nested in the innermost open one; end closes it and
// returns its duration.
func (r *recorder) begin(name string) int {
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{Name: name, StartNs: int64(time.Since(r.origin)), Parent: parent, Unit: r.unit})
	id := len(r.spans) - 1
	r.stack = append(r.stack, id)
	return id
}

func (r *recorder) end(id int) time.Duration {
	r.spans[id].EndNs = int64(time.Since(r.origin))
	if n := len(r.stack); n > 0 && r.stack[n-1] == id {
		r.stack = r.stack[:n-1]
	}
	return time.Duration(r.spans[id].EndNs - r.spans[id].StartNs)
}

// add appends a span measured elsewhere (a client goroutine's request).
func (r *recorder) add(name string, start, end time.Time, unit int) {
	r.spans = append(r.spans, span{
		Name: name, StartNs: int64(start.Sub(r.origin)), EndNs: int64(end.Sub(r.origin)),
		Parent: -1, Unit: unit,
	})
}

func (r *recorder) count(name string, v float64) {
	r.counts = append(r.counts, count{Name: name, Value: v, Unit: r.unit})
}

// timed runs fn inside a span and records its duration in milliseconds as a
// per-layer sample of the same name.
func (b *bench) timed(name string, fn func() error) error {
	id := b.rec.begin(name)
	err := fn()
	d := b.rec.end(id)
	b.addLayer(name, float64(d)/1e6)
	return err
}

// countLayer records a counter both as a trace count and a per-layer sample.
func (b *bench) countLayer(name string, v float64) {
	b.rec.count(name, v)
	b.addLayer(name, v)
}

// writeFile writes every span, then every count, one JSON object a line.
func (r *recorder) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	for _, c := range r.counts {
		if err := enc.Encode(c); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("flush %s: %w", path, err)
	}
	return f.Close()
}

// unitTrace holds what a traced unit samples besides its spans: the CPU
// profile and the allocator counters.
type unitTrace struct {
	mem  memDelta
	prof func() (map[string]float64, error)
}

// profiledPkgs are the packages whose profile self time is reported.
var profiledPkgs = []string{"sim", "netem", "tcp", "attack", "runtime"}

// startTrace starts a traced unit's profiler and allocator snapshot.
func (b *bench) startTrace() (unitTrace, error) {
	prof, err := startProfile()
	return unitTrace{mem: memSnap(), prof: prof}, err
}

// stop records the unit's allocation deltas and per-package self CPU.
func (t unitTrace) stop(b *bench) error {
	t.mem.record(b)
	self, err := t.prof()
	if err != nil {
		return err
	}
	for _, pkg := range profiledPkgs {
		b.addLayer(pkg+".self_cpu_s", self[pkg])
	}
	return nil
}
