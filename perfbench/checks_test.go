package main

import (
	"bytes"
	"math"
	"testing"
	"time"

	"pulsedos/internal/experiments"
	"pulsedos/internal/scenario"
)

// Every output check must accept a right answer and reject a wrong one; a
// check that cannot fail would let a broken program pass the benchmark.

func TestCheckGoodput(t *testing.T) {
	if err := checkGoodput("leg", 1000, 1000); err != nil {
		t.Errorf("at capacity: %v", err)
	}
	if checkGoodput("leg", 1001, 1000) == nil {
		t.Error("goodput above bottleneck capacity accepted")
	}
	if checkGoodput("leg", 0, 1000) == nil {
		t.Error("zero goodput accepted")
	}
}

func TestCheckDegradation(t *testing.T) {
	if err := checkDegradation(1000, 400); err != nil {
		t.Errorf("degradation 0.6: %v", err)
	}
	for _, att := range []uint64{1000, 1200, 0} {
		if checkDegradation(1000, att) == nil {
			t.Errorf("attacked %d vs baseline 1000 accepted", att)
		}
	}
}

func TestExpectedAttackBytes(t *testing.T) {
	d := newPulseDoc(1, 1)
	// T = 960 Mbps · 75 ms / (480 Mbps · 0.5) = 300 ms: pulses start at
	// 0, .3, .6, .9, 1.2 s of the 1.4 s window, each 120 MB/s · 75 ms.
	got, pulses := d.expectedAttackBytes()
	if pulses != 5 || math.Abs(got-5*120e6*0.075) > 1e-6 {
		t.Errorf("expected %v B over %d pulses, want 45e6 B over 5", got, pulses)
	}
	d.MeasureSec = 1.25 // the last pulse is cut 25 ms short
	if got, pulses = d.expectedAttackBytes(); pulses != 5 || math.Abs(got-(4*0.075+0.05)*120e6) > 1e-6 {
		t.Errorf("cut pulse: %v B over %d pulses", got, pulses)
	}
}

func TestCheckAttackBytes(t *testing.T) {
	if err := checkAttackBytes(45005000, 45e6, 5, 1000); err != nil {
		t.Errorf("one extra packet per pulse: %v", err)
	}
	if checkAttackBytes(45006000, 45e6, 5, 1000) == nil {
		t.Error("six packets over five pulses accepted")
	}
	if checkAttackBytes(44990000, 45e6, 5, 1000) == nil {
		t.Error("ten packets short accepted")
	}
}

func TestCheckUnrouted(t *testing.T) {
	if checkUnrouted(0) != nil || checkUnrouted(1) == nil {
		t.Error("unrouted check wrong")
	}
}

func TestIdentical(t *testing.T) {
	want := map[string][]byte{"result.json": []byte("{}"), "rate.csv": []byte("1,2\n")}
	same := map[string][]byte{"result.json": []byte("{}"), "rate.csv": []byte("1,2\n")}
	if err := identical("x", want, same); err != nil {
		t.Errorf("equal sets: %v", err)
	}
	for name, got := range map[string]map[string][]byte{
		"byte differs": {"result.json": []byte("{ }"), "rate.csv": []byte("1,2\n")},
		"file missing": {"result.json": []byte("{}")},
		"file renamed": {"result.json": []byte("{}"), "rate.txt": []byte("1,2\n")},
		"extra file":   {"result.json": []byte("{}"), "rate.csv": []byte("1,2\n"), "x": nil},
	} {
		if identical("x", want, got) == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if identical("x", nil, nil) == nil {
		t.Error("empty reference accepted")
	}
}

func TestSameFigures(t *testing.T) {
	mk := func(y float64) []*experiments.FigureResult {
		return []*experiments.FigureResult{{ID: "f", Series: []experiments.Series{
			{Label: "s", Points: []experiments.Point{{X: 1, Y: y}, {X: 2, Y: math.NaN()}}},
		}}}
	}
	if err := sameFigures(mk(0.5), mk(0.5)); err != nil {
		t.Errorf("equal figures (with NaN): %v", err)
	}
	if sameFigures(mk(0.5), mk(0.5000001)) == nil {
		t.Error("differing point accepted")
	}
	if sameFigures(mk(0.5), nil) == nil {
		t.Error("missing figure accepted")
	}
}

func TestCheckEqual(t *testing.T) {
	if checkEqual("n", 135, 135) != nil || checkEqual("n", 136, 135) == nil {
		t.Error("equality check wrong")
	}
}

func TestCheckProp3(t *testing.T) {
	fig, err := experiments.OptimalityCheck()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkProp3(fig); err != nil {
		t.Fatalf("program's prop3: %v", err)
	}
	pts := fig.Series[0].Points
	perturb := func(i int, dx float64) *experiments.FigureResult {
		c := *fig
		c.Series = []experiments.Series{{Label: fig.Series[0].Label, Points: append([]experiments.Point(nil), pts...)}}
		c.Series[0].Points[i].X += dx
		return &c
	}
	if checkProp3(perturb(0, 1e-3)) == nil {
		t.Error("γ* off the grid argmax accepted")
	}
	// Row 2 is C_Ψ = 0.01, κ = 1: a 1e-6 error is inside the grid's
	// resolution, so only the √C_Ψ identity catches it.
	if checkProp3(perturb(2, 1e-6)) == nil {
		t.Error("κ=1 γ* away from √C_Ψ accepted")
	}
	short := *fig
	short.Notes = short.Notes[1:]
	if checkProp3(&short) == nil {
		t.Error("mismatched notes accepted")
	}
}

func TestGridArgmax(t *testing.T) {
	// κ = 1: dG/dγ = 0 at γ = √C_Ψ.
	if g := gridArgmax(0.04, 1, 1e-5); math.Abs(g-0.2) > 2e-5 {
		t.Errorf("argmax %v, want 0.2", g)
	}
}

func TestCheckCachedExactlyRepeats(t *testing.T) {
	ok := []servedRun{{doc: "a", state: "done"}, {doc: "b", state: "done"}, {doc: "a", state: "done", cached: true}}
	if err := checkCachedExactlyRepeats(ok); err != nil {
		t.Errorf("valid runs: %v", err)
	}
	bad := [][]servedRun{
		{{doc: "a", state: "done", cached: true}},
		{{doc: "a", state: "done"}, {doc: "a", state: "done"}},
		{{doc: "a", state: "failed"}},
	}
	for i, runs := range bad {
		if checkCachedExactlyRepeats(runs) == nil {
			t.Errorf("bad tally %d accepted", i)
		}
	}
}

func TestCheckStatus(t *testing.T) {
	tally := statusTally{requests: 10, hits: 7, misses: 3}
	if err := checkStatus(10, 0, 0, 7, 6, 3, tally); err != nil {
		t.Errorf("misses counted twice: %v", err)
	}
	if err := checkStatus(10, 0, 0, 7, 3, 3, tally); err != nil {
		t.Errorf("misses counted once: %v", err)
	}
	for name, args := range map[string][6]uint64{
		"completed": {9, 0, 0, 7, 6, 3},
		"failed":    {10, 1, 0, 7, 6, 3},
		"canceled":  {10, 0, 1, 7, 6, 3},
		"hits":      {10, 0, 0, 8, 6, 3},
		"misses":    {10, 0, 0, 7, 5, 3},
		"entries":   {10, 0, 0, 7, 6, 4},
	} {
		if checkStatus(args[0], args[1], args[2], args[3], args[4], int(args[5]), tally) == nil {
			t.Errorf("wrong %s accepted", name)
		}
	}
}

func TestPulseDocsLoad(t *testing.T) {
	d := newPulseDoc(7, 2)
	base, err := scenario.Load(bytes.NewReader(d.json(false)))
	if err != nil {
		t.Fatal(err)
	}
	att, err := scenario.Load(bytes.NewReader(d.json(true)))
	if err != nil {
		t.Fatal(err)
	}
	if base.Attack != nil || att.Attack == nil || att.Topology.Workers != 2 || att.Seed != 8 {
		t.Errorf("legs: base attack %v, attacked %+v", base.Attack, att)
	}
}

func TestServeDocsExpandToPoints(t *testing.T) {
	carrier, points, fresh := serveDocs(3, 4)
	cfg, err := scenario.Load(bytes.NewReader(carrier))
	if err != nil {
		t.Fatal(err)
	}
	pts, err := cfg.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(points) {
		t.Fatalf("%d expanded points, %d documents", len(pts), len(points))
	}
	keys := map[string]bool{}
	for i, p := range pts {
		doc, err := scenario.Load(bytes.NewReader(points[i]))
		if err != nil {
			t.Fatal(err)
		}
		kp, _ := scenario.Key(p)
		kd, _ := scenario.Key(doc)
		if kp != kd || p.Name != doc.Name {
			t.Errorf("point %d: document does not match its expansion", i)
		}
		keys[kd] = true
	}
	f, err := scenario.Load(bytes.NewReader(fresh))
	if err != nil {
		t.Fatal(err)
	}
	if kf, _ := scenario.Key(f); keys[kf] {
		t.Error("fresh document shares a key with the batch")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if median(xs) != 2.5 || quantile(xs, 0) != 1 || quantile(xs, 1) != 4 || quantile(xs, 0.9) != 3.7 {
		t.Errorf("quantiles of %v wrong", xs)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func TestSelfByPackage(t *testing.T) {
	stop, err := startProfile()
	if err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	self, err := stop()
	if err != nil {
		t.Fatal(err)
	}
	// In a test binary package main is named by its import path.
	if got := self["main"] + self["perfbench"]; got < 0.1 {
		t.Errorf("profile attributes %.3f s to this package after a 0.3 s spin: %v", got, self)
	}
	for fn, want := range map[string]string{
		"pulsedos/internal/netem.(*Link).Send":           "netem",
		"runtime.mallocgc":                               "runtime",
		"pulsedos/internal/sim.(*Kernel).RunUntil.func1": "sim",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var sink uint64

// spin burns CPU in this package for d; the loop works on a local so that
// race-detector instrumentation does not take the samples.
//
//go:noinline
func spin(d time.Duration) {
	end := time.Now().Add(d)
	x := uint64(1)
	for time.Now().Before(end) {
		for i := uint64(0); i < 1<<20; i++ {
			x = x*6364136223846793005 + i
		}
	}
	sink = x
}
