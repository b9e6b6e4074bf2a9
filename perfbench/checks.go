package main

import (
	"fmt"
	"math"

	"pulsedos/internal/experiments"
	"pulsedos/internal/model"
)

// Output checks. Each compares what the program produced with a value the
// benchmark computed on its own, or with a property the method must have;
// checks_test.go feeds each one a wrong answer.

// checkGoodput: a leg cannot deliver more than the bottleneck carries in the
// measurement window.
func checkGoodput(leg string, delivered uint64, capBytes float64) error {
	if float64(delivered) > capBytes {
		return fmt.Errorf("%s goodput %d B exceeds bottleneck capacity %.0f B", leg, delivered, capBytes)
	}
	if delivered == 0 {
		return fmt.Errorf("%s leg delivered nothing", leg)
	}
	return nil
}

// checkDegradation: the attack must cost the victims goodput, but not all
// of it — degradation 1 − attacked/baseline lies in (0, 1).
func checkDegradation(base, attacked uint64) error {
	if base == 0 {
		return fmt.Errorf("baseline delivered nothing")
	}
	deg := 1 - float64(attacked)/float64(base)
	if !(deg > 0 && deg < 1) {
		return fmt.Errorf("degradation %.4f outside (0,1) (baseline %d B, attacked %d B)", deg, base, attacked)
	}
	return nil
}

// checkAttackBytes: the train's emitted bytes equal the document's
// pulses × extent × rate to within one packet per pulse.
func checkAttackBytes(sent uint64, want float64, pulses int, packetBytes float64) error {
	if d := math.Abs(float64(sent) - want); d > float64(pulses)*packetBytes {
		return fmt.Errorf("attack sent %d B, want %.0f B ± %d packets of %g B", sent, want, pulses, packetBytes)
	}
	return nil
}

// checkUnrouted: every packet found a route.
func checkUnrouted(n uint64) error {
	if n != 0 {
		return fmt.Errorf("%d packets unrouted", n)
	}
	return nil
}

// identical: two artifact sets hold the same files with the same bytes.
func identical(what string, want, got map[string][]byte) error {
	if len(want) == 0 {
		return fmt.Errorf("%s: reference has no artifacts", what)
	}
	if len(want) != len(got) {
		return fmt.Errorf("%s: %d artifacts, want %d", what, len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			return fmt.Errorf("%s: artifact %s missing", what, name)
		}
		if string(g) != string(w) {
			return fmt.Errorf("%s: artifact %s differs (%d vs %d bytes)", what, name, len(g), len(w))
		}
	}
	return nil
}

// sameFigures: two figure sets are equal field for field. The comparison
// renders each with %#v, so NaN points compare equal to NaN.
func sameFigures(want, got []*experiments.FigureResult) error {
	if len(want) != len(got) {
		return fmt.Errorf("figures: %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] == nil || got[i] == nil {
			return fmt.Errorf("figures: result %d is nil", i)
		}
		if fmt.Sprintf("%#v", *want[i]) != fmt.Sprintf("%#v", *got[i]) {
			return fmt.Errorf("figures: %s differs between passes", want[i].ID)
		}
	}
	return nil
}

// checkEqual compares a counter with the value the benchmark expects.
func checkEqual(what string, got, want uint64) error {
	if got != want {
		return fmt.Errorf("%s = %d, want %d", what, got, want)
	}
	return nil
}

// gridArgmax maximizes model.Gain(cPsi, γ, κ) over γ on a uniform grid of
// the given step across (cPsi, 1).
func gridArgmax(cPsi, kappa, step float64) float64 {
	best, arg := math.Inf(-1), math.NaN()
	for g := cPsi + step; g < 1; g += step {
		if v := model.Gain(cPsi, g, kappa); v > best {
			best, arg = v, g
		}
	}
	return arg
}

// checkProp3 verifies the prop3 figure: for each (C_Ψ, κ) row its
// closed-form γ* is the brute-force grid argmax of the gain, and for κ = 1
// it equals √C_Ψ.
func checkProp3(fig *experiments.FigureResult) error {
	if fig == nil || len(fig.Series) != 1 || len(fig.Notes) != len(fig.Series[0].Points) || len(fig.Notes) == 0 {
		return fmt.Errorf("prop3: unexpected shape")
	}
	const step = 1e-5
	for i, note := range fig.Notes {
		var cPsi, kappa float64
		if _, err := fmt.Sscanf(note, "CPsi=%g kappa=%g:", &cPsi, &kappa); err != nil {
			return fmt.Errorf("prop3: note %q: %v", note, err)
		}
		closed := fig.Series[0].Points[i].X
		if g := gridArgmax(cPsi, kappa, step); math.Abs(g-closed) > 2*step {
			return fmt.Errorf("prop3: C_Ψ=%g κ=%g: γ*=%.6f, grid argmax %.6f", cPsi, kappa, closed, g)
		}
		if kappa == 1 && math.Abs(closed-math.Sqrt(cPsi)) > 1e-9 {
			return fmt.Errorf("prop3: C_Ψ=%g κ=1: γ*=%.9f, want √C_Ψ=%.9f", cPsi, closed, math.Sqrt(cPsi))
		}
	}
	return nil
}

// servedRun is the client's view of one finished request.
type servedRun struct {
	doc    string // the document bytes the client sent
	state  string
	cached bool
}

// checkCachedExactlyRepeats: every run ended done, and a run was served
// from cache exactly when the client had sent the same document before.
func checkCachedExactlyRepeats(runs []servedRun) error {
	seen := make(map[string]bool)
	for i, r := range runs {
		if r.state != "done" {
			return fmt.Errorf("run %d ended %q, want done", i, r.state)
		}
		if r.cached != seen[r.doc] {
			return fmt.Errorf("run %d cached=%v but repeated=%v", i, r.cached, seen[r.doc])
		}
		seen[r.doc] = true
	}
	return nil
}

// statusTally is what the client counted over the server's lifetime.
type statusTally struct {
	requests, hits, misses uint64
}

// checkStatus: the server's /status counters agree with the client's
// tally. Every run completed and none failed or was canceled; the cache
// served exactly the client's hits, holds one entry per miss, and counted
// each miss once or twice — once at admission, and once more when the
// worker re-checks the cache before computing.
func checkStatus(completed, failed, canceled, hits, misses uint64, entries int, t statusTally) error {
	switch {
	case completed != t.requests:
		return fmt.Errorf("status: completed %d, client saw %d runs", completed, t.requests)
	case failed != 0 || canceled != 0:
		return fmt.Errorf("status: %d failed, %d canceled", failed, canceled)
	case hits != t.hits:
		return fmt.Errorf("status: cache hits %d, client saw %d", hits, t.hits)
	case uint64(entries) != t.misses:
		return fmt.Errorf("status: %d cache entries, client saw %d misses", entries, t.misses)
	case misses != t.misses && misses != 2*t.misses:
		return fmt.Errorf("status: cache misses %d, client saw %d", misses, t.misses)
	}
	return nil
}
