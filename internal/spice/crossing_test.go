package spice

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"ppatc/internal/device"
)

// TestTransientToCrossingStopsAtCrossing pins the early stop: the run
// records exactly the full run's samples up to and including the first
// one that completes the crossing (index k, so k+1 samples), bit for bit,
// and its CrossingTime is the full run's. Falling and rising crossings,
// and a tStart that skips an earlier crossing, are covered.
func TestTransientToCrossingStopsAtCrossing(t *testing.T) {
	in := Pulse{V1: 0, V2: device.VDD, Delay: 0.2e-9, Rise: 10e-12, Width: 1e-9, Fall: 10e-12}
	c := buildInverter(t, in, 1e-15)
	full, err := c.Transient(3e-9, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		threshold float64
		rising    bool
		tStart    float64
	}{
		{device.VDD / 2, false, 0.2e-9}, // output falls after the input rises
		{device.VDD / 2, true, 0.2e-9},  // and rises again after it falls
		{0.1, false, 0},
		{device.VDD / 2, true, 1.5e-9}, // past the rising crossing
	} {
		name := fmt.Sprintf("thr=%g rising=%v tStart=%g", tc.threshold, tc.rising, tc.tStart)
		want, wantErr := full.CrossingTime("out", tc.threshold, tc.rising, tc.tStart)
		short, err := c.TransientToCrossing(3e-9, 1e-12, "out", tc.threshold, tc.rising, tc.tStart)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, gotErr := short.CrossingTime("out", tc.threshold, tc.rising, tc.tStart)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: crossing (%v, %v), full run (%v, %v)", name, got, gotErr, want, wantErr)
		}
		wFull, _ := full.Voltage("out")
		k := 1
		for k < len(full.Times) && !full.crossed(wFull, k, tc.threshold, tc.rising, tc.tStart) {
			k++
		}
		if k == len(full.Times) {
			if len(short.Times) != len(full.Times) {
				t.Errorf("%s: no crossing, but %d of %d samples recorded", name, len(short.Times), len(full.Times))
			}
			continue
		}
		if len(short.Times) != k+1 {
			t.Errorf("%s: crossing at sample %d, %d samples recorded, want %d", name, k, len(short.Times), k+1)
		}
		for _, node := range c.Nodes() {
			a, _ := short.Voltage(node)
			b, _ := full.Voltage(node)
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) || short.Times[i] != full.Times[i] {
					t.Fatalf("%s: node %s sample %d = %v, full run %v", name, node, i, a[i], b[i])
				}
			}
		}
	}
}

// TestTransientToCrossingWithoutCrossing pins the cases that never stop
// early: a node that does not cross, ground and an unknown node run the
// whole window and report the full run's error text.
func TestTransientToCrossingWithoutCrossing(t *testing.T) {
	c := NewCircuit()
	mustNoErr(t, c.AddV("vs", "in", Ground, DC(1)))
	mustNoErr(t, c.AddR("r", "in", "out", 1000))
	mustNoErr(t, c.AddC("c", "out", Ground, 1e-9))
	full, err := c.Transient(5e-6, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range []string{"out", Ground, "nowhere"} {
		_, wantErr := full.CrossingTime(node, 2.0, true, 0)
		tr, err := c.TransientToCrossing(5e-6, 1e-8, node, 2.0, true, 0)
		if err != nil {
			t.Fatalf("%s: %v", node, err)
		}
		if len(tr.Times) != len(full.Times) {
			t.Errorf("%s: %d samples, full window %d", node, len(tr.Times), len(full.Times))
		}
		_, gotErr := tr.CrossingTime(node, 2.0, true, 0)
		if gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Errorf("%s: error %v, full run %v", node, gotErr, wantErr)
		}
	}
}

// TestTransientToCrossingSkipsLaterFailure shows the one outcome that
// differs from a full Transient: a Newton failure after the crossing.
// The source steps by 1 kV late in the window, more than the damped
// Newton iteration can follow, so the full run fails there; the early
// stop never reaches that step and returns the crossing.
func TestTransientToCrossingSkipsLaterFailure(t *testing.T) {
	src, err := NewPWL([2]float64{0, 0}, [2]float64{1e-8, 1}, [2]float64{8e-6, 1}, [2]float64{8.01e-6, 1000})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCircuit()
	mustNoErr(t, c.AddV("vs", "in", Ground, src))
	mustNoErr(t, c.AddR("r", "in", "out", 1000))
	mustNoErr(t, c.AddC("c", "out", Ground, 1e-9))
	if _, err := c.Transient(10e-6, 1e-7); err == nil || !strings.Contains(err.Error(), "did not converge") {
		t.Fatalf("full window: err = %v, want a Newton failure at the 1 kV step", err)
	}
	tr, err := c.TransientToCrossing(10e-6, 1e-7, "out", 0.5, true, 0)
	if err != nil {
		t.Fatalf("early stop: %v", err)
	}
	tc, err := tr.CrossingTime("out", 0.5, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	// An RC charge to 1 V crosses 0.5 V near τ·ln 2 ≈ 0.69 µs after the
	// 10 ns ramp; backward Euler at 0.1 µs steps lands close to it.
	if tc < 0.6e-6 || tc > 0.9e-6 {
		t.Errorf("crossing at %v s, want ≈ 0.7 µs", tc)
	}
}
