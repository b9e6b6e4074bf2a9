package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// End-to-end metric names and units. Every workload reports all of them;
// README.md says what each means per workload.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cold_s", "s"},
	{"cold_cpu_s", "s"},
	{"warm_s", "s"},
	{"warm_p90_s", "s"},
	{"max_rss_mb", "MiB"},
}

// setups is how many times a run sets its workload up; setup_s is their
// median. Only the last setup's state is kept for the timed units.
const setups = 5

// minTailSamples is the fewest warm samples a 90th percentile is taken
// from. With fewer (pulse-*, 20–30 units a run) the 90th percentile is
// close to the slowest unit rather than a tail, so warm_p90_s repeats the
// warm_s median instead: every run prints every end-to-end metric.
const minTailSamples = 100

// minUnits is the fewest timed units of each kind a run completes, even when
// the budget runs out first, so every median has a few samples behind it.
const minUnits = 3

// bench is one benchmark run: its arguments, the samples the timed units
// record, the per-layer measurements of a traced run, and the check tally.
type bench struct {
	workload string
	seed     uint64
	budget   time.Duration
	traced   bool
	dir      string

	start   time.Time
	samples map[string][]float64 // end-to-end samples by metric
	layer   map[string][]float64 // per-layer samples by metric
	rec     *recorder

	attempted int
	failed    int
	failures  []string
}

func newBench(workload string, seed uint64, seconds float64, traced bool, dir string) *bench {
	return &bench{
		workload: workload,
		seed:     seed,
		budget:   time.Duration(seconds * float64(time.Second)),
		traced:   traced,
		dir:      dir,
		samples:  make(map[string][]float64),
		layer:    make(map[string][]float64),
		rec:      newRecorder(),
	}
}

// add records one end-to-end sample.
func (b *bench) add(name string, v float64) { b.samples[name] = append(b.samples[name], v) }

// addLayer records one per-layer sample.
func (b *bench) addLayer(name string, v float64) { b.layer[name] = append(b.layer[name], v) }

// check records the outcome of one output check.
func (b *bench) check(err error) {
	if err != nil {
		b.failures = append(b.failures, err.Error())
	}
}

// op counts one attempted operation and whether it failed.
func (b *bench) op(err error) error {
	b.attempted++
	if err != nil {
		b.failed++
	}
	return err
}

// measureStart opens the timed phase: the budget counts from here.
func (b *bench) measureStart() { b.start = time.Now() }

// more reports whether another timed unit fits the budget; the first
// minUnits units always run.
func (b *bench) more(done int) bool {
	return done < minUnits || time.Since(b.start) < b.budget
}

// timeSetups runs setup `setups` times, tearing all but the last down, and
// records the median wall time as setup_s.
func (b *bench) timeSetups(setup func() error, teardown func()) error {
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		b.add("setup_s", time.Since(t0).Seconds())
		if i < setups-1 {
			teardown()
		}
	}
	return nil
}

// unitTimer measures one timed unit's wall and process CPU time.
type unitTimer struct {
	wall time.Time
	cpu  float64
}

func startUnit() unitTimer { return unitTimer{wall: time.Now(), cpu: processCPU()} }

// stop returns the unit's wall and CPU seconds.
func (u unitTimer) stop() (wall, cpu float64) {
	return time.Since(u.wall).Seconds(), processCPU() - u.cpu
}

// processCPU reports the process's user+system CPU seconds so far.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// maxRSSMiB reports the process's peak resident set.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// memDelta snapshots the allocator so a unit's allocation and GC counts can
// be taken as a difference. ReadMemStats stops the world, so only traced
// units take it.
type memDelta struct{ alloc, gcs uint64 }

func memSnap() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{alloc: ms.TotalAlloc, gcs: uint64(ms.NumGC)}
}

// record adds the allocation and GC deltas since m as per-layer samples.
func (m memDelta) record(b *bench) {
	now := memSnap()
	b.addLayer("mem.alloc_mb", float64(now.alloc-m.alloc)/(1<<20))
	b.addLayer("mem.gc_cycles", float64(now.gcs-m.gcs))
}

// median of xs (NaN when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// result assembles the final JSON object: end-to-end metrics untraced,
// per-layer metrics traced.
func (b *bench) result() output {
	out := output{
		Correct:   len(b.failures) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   make(map[string]metric),
	}
	if b.traced {
		for _, m := range perLayer {
			out.Metrics[m.name] = metric{Value: b.layerValue(m.name, m.agg), Unit: m.unit}
		}
		return out
	}
	b.samples["max_rss_mb"] = []float64{maxRSSMiB()}
	for _, m := range endToEnd {
		v := median(b.samples[m.name])
		if warm := b.samples["warm_s"]; m.name == "warm_p90_s" {
			v = median(warm)
			if len(warm) >= minTailSamples {
				v = quantile(warm, 0.9)
			}
		}
		if math.IsNaN(v) {
			out.Correct = false
			b.failures = append(b.failures, "no samples for "+m.name)
			v = 0
		}
		out.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return out
}

// layerValue aggregates one per-layer metric's samples; a layer the
// workload does not exercise has no samples and reports 0.
func (b *bench) layerValue(name string, agg aggregate) float64 {
	xs := b.layer[name]
	if len(xs) == 0 {
		return 0
	}
	switch agg {
	case aggP90:
		return quantile(xs, 0.9)
	default:
		return median(xs)
	}
}

// printSummary writes a human-readable table (sample counts and spread) to
// standard output ahead of the JSON line.
func (b *bench) printSummary() {
	fmt.Printf("host: %d CPUs, GOMAXPROCS %d, %s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("workload %s seed %d traced=%v attempted=%d failed=%d checks_failed=%d\n",
		b.workload, b.seed, b.traced, b.attempted, b.failed, len(b.failures))
	set := b.samples
	if b.traced {
		set = b.layer
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		xs := set[n]
		fmt.Printf("  %-26s n=%-4d median=%-12.6g q1=%-12.6g q3=%-12.6g\n",
			n, len(xs), median(xs), quantile(xs, 0.25), quantile(xs, 0.75))
	}
}
