package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"pulsedos/internal/experiments"
	"pulsedos/internal/figures"
	"pulsedos/internal/runcache"
	"pulsedos/internal/scenario"
)

// figureWarmPasses is the number of warm replays after each cold pass, so
// that even a run cut to minUnits rounds has minTailSamples warm samples.
const figureWarmPasses = 34

// figureWarmupIDs are the figures the set-up's warm-up unit runs cold and
// warm in a throwaway cache: small, but through the same pipeline.
var figureWarmupIDs = []string{"fig1", "fig2", "prop3"}

// figureIDs is every registered figure except "scale", whose observables
// are wall-clock and which is never cached.
func figureIDs() []string {
	var ids []string
	for _, id := range figures.IDs() {
		if id != "scale" {
			ids = append(ids, id)
		}
	}
	return ids
}

// analyticIDs are the figures computed directly, without documents.
func analyticIDs() []string {
	var ids []string
	for _, d := range figures.Registry() {
		if d.Analytic() && d.ID != "scale" {
			ids = append(ids, d.ID)
		}
	}
	return ids
}

// figurePoint is one expanded point with its cache key.
type figurePoint struct {
	key string
	cfg scenario.Config
}

// figureDocs compiles every figure to documents and expands them to their
// distinct point keys, in first-appearance order — the benchmark's own
// count of the runs a cold pass must compute.
func figureDocs(ids []string, scale experiments.Scale) (docs []scenario.Config, points []figurePoint, err error) {
	seen := make(map[string]bool)
	for _, id := range ids {
		ds, err := figures.Documents(id, scale)
		if err != nil {
			return nil, nil, err
		}
		for _, d := range ds {
			docs = append(docs, d)
			pts, err := d.Expand()
			if err != nil {
				return nil, nil, err
			}
			for _, p := range pts {
				p.Name = "" // a point's name is a label, not physics
				key, err := scenario.Key(p)
				if err != nil {
					return nil, nil, err
				}
				if !seen[key] {
					seen[key] = true
					points = append(points, figurePoint{key: key, cfg: p})
				}
			}
		}
	}
	return docs, points, nil
}

// runFigures drives figures-quick: rounds of one cold pass of every figure
// into an empty cache followed by warm replays from it.
func runFigures(b *bench) error {
	ctx := context.Background()
	scale := experiments.QuickScale()
	scale.Seed = b.seed + 1 // figures need a nonzero seed
	ids := figureIDs()
	var docs []scenario.Config
	var points []figurePoint

	if err := b.timeSetups(func() (err error) {
		if docs, points, err = figureDocs(ids, scale); err != nil {
			return err
		}
		dir := filepath.Join(b.dir, "warmup")
		defer os.RemoveAll(dir)
		st, err := runcache.Open(dir, 0)
		if err != nil {
			return err
		}
		opt := figures.Options{Cache: st, Parallel: 2}
		for pass := 0; pass < 2; pass++ {
			if _, err := figures.RunJobs(ctx, figureWarmupIDs, scale, opt); err != nil {
				return err
			}
		}
		return nil
	}, func() {}); err != nil {
		return err
	}

	var reference []*experiments.FigureResult
	var colds, tracedColds []float64
	b.measureStart()
	for r := 0; b.more(r); r++ {
		b.rec.setUnit(r)
		traced := b.traced && r%2 == 1
		dir := filepath.Join(b.dir, fmt.Sprintf("cache-%d", r))
		st, err := runcache.Open(dir, 0)
		if err != nil {
			return err
		}
		opt := figures.Options{Cache: st, Parallel: 2}

		var tr unitTrace
		if traced {
			if tr, err = b.startTrace(); err != nil {
				return err
			}
		}
		t := startUnit()
		cold, err := figures.RunJobs(ctx, ids, scale, opt)
		wall, cpu := t.stop()
		if traced {
			tracedColds = append(tracedColds, wall)
			b.check(tr.stop(b))
		}
		if b.op(err) != nil {
			return err
		}
		if !traced {
			colds = append(colds, wall)
			b.add("cold_s", wall)
			b.add("cold_cpu_s", cpu)
		}
		cs := st.Stats()
		b.countLayer("runcache.hits", float64(cs.Hits))
		b.countLayer("runcache.misses", float64(cs.Misses))
		b.countLayer("runcache.deduped", float64(cs.Deduped))
		b.countLayer("runcache.bytes", float64(cs.Bytes))
		b.check(checkEqual("cold-pass cache misses vs distinct point keys", cs.Misses, uint64(len(points))))
		b.check(checkEqual("cold-pass cache entries vs distinct point keys", uint64(cs.Entries), uint64(len(points))))
		b.check(checkProp3(findFigure(cold, "prop3")))
		if reference == nil {
			reference = cold
		} else {
			b.check(sameFigures(reference, cold))
		}

		for w := 0; w < figureWarmPasses; w++ {
			before := st.Stats()
			t := startUnit()
			warm, err := figures.RunJobs(ctx, ids, scale, opt)
			wall, _ := t.stop()
			if b.op(err) != nil {
				return err
			}
			if !traced {
				b.add("warm_s", wall)
			}
			b.check(checkEqual("warm-pass cache misses", st.Stats().Misses-before.Misses, 0))
			b.check(sameFigures(cold, warm))
		}
		if traced {
			b.check(b.figureLayers(ctx, ids, scale, docs, points, st))
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	if b.traced {
		b.addLayer("trace.overhead_pct", overheadPct(tracedColds, colds))
	}
	return nil
}

func findFigure(figs []*experiments.FigureResult, id string) *experiments.FigureResult {
	for _, f := range figs {
		if f != nil && f.ID == id {
			return f
		}
	}
	return nil
}

// figurePointSample is how many distinct points (evenly spaced) a traced
// round recomputes layer by layer.
const figurePointSample = 15

// figureLayers times each layer call the figure pipeline makes, on the
// round's own documents and warm cache, outside the timed units.
func (b *bench) figureLayers(ctx context.Context, ids []string, scale experiments.Scale,
	docs []scenario.Config, points []figurePoint, st *runcache.Store) error {
	if err := b.timed("figures.compile_ms", func() error {
		for _, id := range ids {
			if _, err := figures.Documents(id, scale); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := b.timed("figures.analytic_ms", func() error {
		_, err := figures.RunJobs(ctx, analyticIDs(), scale, figures.Options{})
		return err
	}); err != nil {
		return err
	}
	for _, d := range docs {
		raw, err := json.Marshal(d)
		if err != nil {
			return err
		}
		if err := b.timed("scenario.load_ms", func() error {
			_, err := scenario.Load(bytes.NewReader(raw))
			return err
		}); err != nil {
			return err
		}
		if d.Sweeps() {
			if err := b.timed("scenario.expand_ms", func() error {
				_, err := d.Expand()
				return err
			}); err != nil {
				return err
			}
		}
	}
	scratch, err := runcache.Open(filepath.Join(b.dir, "put-scratch"), 0)
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch.Root())
	step := max(1, len(points)/figurePointSample)
	for i, p := range points {
		if err := b.timed("scenario.key_ms", func() error {
			if _, err := p.cfg.Canonical(); err != nil {
				return err
			}
			_, err := scenario.Key(p.cfg)
			return err
		}); err != nil {
			return err
		}
		var files map[string][]byte
		if err := b.timed("runcache.get_ms", func() error {
			var ok bool
			if files, ok = st.Get(p.key); !ok {
				return fmt.Errorf("runcache: warm cache misses %s", p.key)
			}
			return nil
		}); err != nil {
			return err
		}
		if err := b.timed("runcache.put_ms", func() error {
			return scratch.Put(p.key, "figure-point", experiments.EngineVersion, files)
		}); err != nil {
			return err
		}
		if i%step == 0 {
			if err := b.recomputePoint(ctx, p.cfg, files); err != nil {
				return err
			}
		}
	}
	return nil
}

// recomputePoint rebuilds one point layer by layer — Build, then the run,
// then EncodeResult — and checks the encoding against the cached artifacts.
func (b *bench) recomputePoint(ctx context.Context, cfg scenario.Config, cached map[string][]byte) error {
	if err := b.timed("topo.build_ms", func() error {
		env, err := cfg.Build()
		if cl, ok := env.(interface{ Close() }); ok && err == nil {
			cl.Close()
		}
		return err
	}); err != nil {
		return err
	}
	res, err := cfg.RunContext(ctx, nil)
	if err != nil {
		return err
	}
	var files map[string][]byte
	if err := b.timed("scenario.encode_ms", func() (err error) {
		files, err = scenario.EncodeResult(cfg, res)
		return err
	}); err != nil {
		return err
	}
	b.check(identical("recomputed figure point vs cached artifacts", cached, files))
	return nil
}
