package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"pulsedos/internal/experiments"
	"pulsedos/internal/scenario"
	"pulsedos/internal/topo"
)

// pulseDoc is the attacked dumbbell the pulse workloads run: 1200 long-lived
// flows sharing a 480 Mbps RED bottleneck (0.4 Mbps per flow), pulsed by a
// 960 Mbps AIMD-targeted train (75 ms pulses at γ = 0.5, so T_AIMD = 300 ms).
// The attack stays below the attacker's 1 Gbps access link, so the paced
// batch path engages. The seed moves the flows' RTTs and start times only.
type pulseDoc struct {
	Flows          int
	Workers        int
	BottleneckMbps float64
	QueuePackets   int
	RateMbps       float64
	ExtentMs       float64
	Gamma          float64
	WarmupSec      float64
	MeasureSec     float64
	Seed           uint64
	PacketBytes    float64 // attack packet wire size (the dumbbell default)
}

func newPulseDoc(seed uint64, workers int) pulseDoc {
	return pulseDoc{
		Flows:          1200,
		Workers:        workers,
		BottleneckMbps: 480,
		QueuePackets:   4800,
		RateMbps:       960,
		ExtentMs:       75,
		Gamma:          0.5,
		WarmupSec:      1,
		MeasureSec:     1.4,
		Seed:           seed + 1, // a document's seed 0 means "kind default"
		PacketBytes:    1000,
	}
}

// json renders the document; attacked selects the attacked leg, otherwise
// the same document without its attack (the baseline leg).
func (d pulseDoc) json(attacked bool) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"name":"pulse-%d","topology":{"kind":"dumbbell","flows":%d,`, d.Seed, d.Flows)
	if d.Workers > 1 {
		fmt.Fprintf(&b, `"workers":%d,`, d.Workers)
	}
	fmt.Fprintf(&b, `"bottleneckMbps":%g,"queuePackets":%d},`, d.BottleneckMbps, d.QueuePackets)
	if attacked {
		fmt.Fprintf(&b, `"attack":{"kind":"aimd","rateMbps":%g,"extentMs":%g,"gamma":%g},`,
			d.RateMbps, d.ExtentMs, d.Gamma)
	}
	fmt.Fprintf(&b, `"warmupSec":%g,"measureSec":%g,"seed":%d}`, d.WarmupSec, d.MeasureSec, d.Seed)
	return b.Bytes()
}

// expectedAttackBytes computes, from the document's parameters alone, the
// bytes the train should emit inside the run and the number of pulses that
// start inside it: period T = R·extent/(γ·B), PulsesFor's n = ⌊measure/T⌋+2
// pulses from the warm-up boundary, each emitting R·min(extent, end−start)/8
// bytes before the run ends.
func (d pulseDoc) expectedAttackBytes() (bytes float64, pulses int) {
	extent := d.ExtentMs / 1e3
	period := d.RateMbps * extent / (d.BottleneckMbps * d.Gamma)
	n := int(d.MeasureSec/period) + 2
	for k := 0; k < n; k++ {
		left := d.MeasureSec - float64(k)*period
		if left <= 0 {
			break
		}
		bytes += d.RateMbps * 1e6 / 8 * min(extent, left)
		pulses++
	}
	return bytes, pulses
}

// legOut is one leg computed to artifacts, with the counters read from the
// layers' public accessors.
type legOut struct {
	files     map[string][]byte
	res       *experiments.RunResult
	processed uint64
	kernelEv  uint64
	skipped   uint64
	windows   uint64
	unrouted  uint64
	drops     uint64
}

// computeLeg runs one leg through the program's own path: scenario.Load,
// then scenario.ComputeArtifacts (Validate, Build, Train, the run,
// EncodeResult), the call serve and figures make for every run. Untraced
// units time this.
func computeLeg(doc []byte) (map[string][]byte, error) {
	cfg, err := scenario.Load(bytes.NewReader(doc))
	if err != nil {
		return nil, err
	}
	return scenario.ComputeArtifacts(context.Background(), cfg, nil)
}

// runLeg drives one document through the layers one call at a time —
// Load, Build, Train, RunCtx, EncodeResult — so that each call can be timed
// and the environment's counters read. Traced units run it, and every run
// makes one such unit outside the timing for the counter-based checks; its
// artifacts must equal computeLeg's.
func runLeg(b *bench, doc []byte, traced bool) (legOut, error) {
	var out legOut
	var cfg scenario.Config
	span := func(name string, fn func() error) error {
		if traced {
			return b.timed(name, fn)
		}
		return fn()
	}
	if err := span("scenario.load_ms", func() (err error) {
		cfg, err = scenario.Load(bytes.NewReader(doc))
		return err
	}); err != nil {
		return out, err
	}
	var env experiments.Environment
	if err := span("topo.build_ms", func() (err error) {
		env, err = cfg.Build()
		return err
	}); err != nil {
		return out, err
	}
	tenv, ok := env.(*topo.Environment)
	if !ok {
		return out, fmt.Errorf("build returned %T, want *topo.Environment", env)
	}
	defer tenv.Close()
	train, err := cfg.Train(env)
	if err != nil {
		return out, err
	}
	opt := experiments.RunOptions{
		Warmup:  time.Duration(cfg.WarmupSec * float64(time.Second)),
		Measure: time.Duration(cfg.MeasureSec * float64(time.Second)),
		Train:   train,
	}
	if err := span("sim.run", func() (err error) {
		out.res, err = experiments.RunCtx(context.Background(), env, opt)
		return err
	}); err != nil {
		return out, err
	}
	if err := span("scenario.encode_ms", func() (err error) {
		out.files, err = scenario.EncodeResult(cfg, out.res)
		return err
	}); err != nil {
		return out, err
	}
	out.processed = tenv.Processed()
	out.kernelEv = tenv.KernelEvents()
	out.skipped = tenv.SkippedEvents()
	out.unrouted = tenv.Unrouted()
	out.drops = tenv.BottleStats().Drops
	if eng := tenv.Engine(); eng != nil {
		out.windows = eng.Windows()
	}
	return out, nil
}

// pulseUnit is one layer-by-layer unit: the baseline leg and the attacked
// leg.
type pulseUnit struct{ base, att legOut }

func (u pulseUnit) files() [2]map[string][]byte {
	return [2]map[string][]byte{u.base.files, u.att.files}
}

// runPulse drives pulse-serial (workers = 1) and pulse-sharded (workers = 2).
func runPulse(b *bench, workers int) error {
	doc := newPulseDoc(b.seed, workers)
	var legs [2][]byte
	// compute is one untraced unit: both legs through computeLeg. attWall
	// is the attacked leg's share, for sim.ns_per_event.
	compute := func() (files [2]map[string][]byte, attWall float64, err error) {
		for i, leg := range legs {
			t0 := time.Now()
			if files[i], err = computeLeg(leg); err != nil {
				return files, 0, fmt.Errorf("leg %d: %w", i, err)
			}
			attWall = time.Since(t0).Seconds()
		}
		return files, attWall, nil
	}
	decomposed := func(traced bool) (pulseUnit, error) {
		var u pulseUnit
		var err error
		if u.base, err = runLeg(b, legs[0], traced); err != nil {
			return u, fmt.Errorf("baseline leg: %w", err)
		}
		if u.att, err = runLeg(b, legs[1], traced); err != nil {
			return u, fmt.Errorf("attacked leg: %w", err)
		}
		return u, nil
	}

	// Set-up: generate the documents, then one untimed warm-up unit so page
	// faults and heap growth land here.
	if err := b.timeSetups(func() error {
		legs = [2][]byte{doc.json(false), doc.json(true)}
		_, _, err := compute()
		return err
	}, func() {}); err != nil {
		return err
	}

	var first [2]map[string][]byte
	var walls, tracedWalls, attWalls []float64
	sameAsFirst := func(what string, files [2]map[string][]byte) {
		if first[0] == nil {
			first = files
			return
		}
		b.check(identical(what+" vs first unit (baseline)", first[0], files[0]))
		b.check(identical(what+" vs first unit (attacked)", first[1], files[1]))
	}
	b.measureStart()
	for i := 0; b.more(i); i++ {
		b.rec.setUnit(i)
		if b.traced && i%2 == 1 {
			tr, err := b.startTrace()
			if err != nil {
				return err
			}
			t := startUnit()
			u, err := decomposed(true)
			wall, _ := t.stop()
			b.check(tr.stop(b))
			if b.op(err) != nil {
				return err
			}
			tracedWalls = append(tracedWalls, wall)
			b.pulseCounts(u)
			b.pulseChecks(doc, u)
			sameAsFirst("layer-by-layer unit artifacts", u.files())
			b.pulseKeys(legs)
			continue
		}
		t := startUnit()
		files, attWall, err := compute()
		wall, cpu := t.stop()
		if b.op(err) != nil {
			return err
		}
		walls = append(walls, wall)
		attWalls = append(attWalls, attWall)
		b.add("cold_s", wall)
		b.add("cold_cpu_s", cpu)
		b.add("warm_s", wall) // no cache on this path: a repeat recomputes
		sameAsFirst("unit artifacts", files)
	}

	// Outside the timed units: one layer-by-layer unit for the checks that
	// read the environment's counters. Its artifacts equal the timed
	// units', so the checks hold for every unit.
	u, err := decomposed(false)
	if b.op(err) != nil {
		return err
	}
	b.pulseChecks(doc, u)
	sameAsFirst("layer-by-layer unit artifacts", u.files())
	if b.traced {
		b.addLayer("trace.overhead_pct", overheadPct(tracedWalls, walls))
		for _, w := range attWalls {
			b.addLayer("sim.ns_per_event", w*1e9/float64(u.att.processed))
		}
	}
	if workers > 1 {
		// The sharded artifacts must equal a serial computation.
		serial := newPulseDoc(b.seed, 1)
		for i, leg := range [][]byte{serial.json(false), serial.json(true)} {
			ref, err := computeLeg(leg)
			if err != nil {
				return err
			}
			b.check(identical(fmt.Sprintf("workers=%d artifacts vs serial ComputeArtifacts (leg %d)", workers, i), ref, first[i]))
		}
	}
	return nil
}

// pulseCounts records a unit's exact counters as per-layer samples.
func (b *bench) pulseCounts(u pulseUnit) {
	if !b.traced {
		return
	}
	events := u.base.processed + u.att.processed
	segs := u.base.res.SegmentsSent + u.att.res.SegmentsSent
	b.countLayer("sim.events", float64(events))
	b.countLayer("sim.kernel_events", float64(u.base.kernelEv+u.att.kernelEv))
	b.countLayer("sim.events_per_pkt", float64(events)/float64(segs))
	b.countLayer("sim.skipped_events", float64(u.base.skipped+u.att.skipped))
	b.countLayer("sim.windows", float64(u.base.windows+u.att.windows))
	b.countLayer("netem.bottleneck_drops", float64(u.base.drops+u.att.drops))
	b.countLayer("tcp.segments_sent", float64(segs))
	b.countLayer("attack.packets_sent", float64(u.att.res.AttackStats.PacketsSent))
}

// pulseChecks verifies one unit against the properties the method must have.
func (b *bench) pulseChecks(d pulseDoc, u pulseUnit) {
	capBytes := d.BottleneckMbps * 1e6 / 8 * d.MeasureSec
	b.check(checkGoodput("baseline", u.base.res.Delivered, capBytes))
	b.check(checkGoodput("attacked", u.att.res.Delivered, capBytes))
	b.check(checkDegradation(u.base.res.Delivered, u.att.res.Delivered))
	want, pulses := d.expectedAttackBytes()
	b.check(checkAttackBytes(u.att.res.AttackStats.BytesSent, want, pulses, d.PacketBytes))
	b.check(checkUnrouted(u.base.unrouted + u.att.unrouted))
}

// pulseKeys times the cache-keying and expansion calls on the unit's
// documents — not part of the pulse path, measured after the unit so the
// traced unit's wall time stays comparable with an untraced one.
func (b *bench) pulseKeys(legs [2][]byte) {
	for _, leg := range legs {
		cfg, err := scenario.Load(bytes.NewReader(leg))
		if err != nil {
			b.check(err)
			continue
		}
		b.check(b.timed("scenario.key_ms", func() error {
			if _, err := cfg.Canonical(); err != nil {
				return err
			}
			_, err := scenario.Key(cfg)
			return err
		}))
		b.check(b.timed("scenario.expand_ms", func() error {
			_, err := cfg.Expand()
			return err
		}))
	}
}

// overheadPct is the tracing overhead: how much slower the median traced
// unit ran than the median untraced one.
func overheadPct(traced, untraced []float64) float64 {
	u := median(untraced)
	return (median(traced) - u) / u * 100
}
