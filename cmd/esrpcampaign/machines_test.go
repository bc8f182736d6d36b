package main

import (
	"math"
	"testing"

	"esrp"
)

func TestParseMachineSweep(t *testing.T) {
	base := esrp.DefaultCostModel()

	t.Run("grid", func(t *testing.T) {
		ms, err := parseMachineSweep("L=1x,4x;G=1x,2x,8x", base)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != 6 {
			t.Fatalf("got %d machine points, want 6", len(ms))
		}
		// Last segment varies fastest: first three points share L = base.
		for i := 0; i < 3; i++ {
			if ms[i].Model.Latency != base.Latency {
				t.Errorf("point %d: Latency = %g, want base %g", i, ms[i].Model.Latency, base.Latency)
			}
		}
		if got, want := ms[3].Model.Latency, 4*base.Latency; got != want {
			t.Errorf("point 3: Latency = %g, want %g", got, want)
		}
		if got, want := ms[5].Model.BytePeriod, 8*base.BytePeriod; got != want {
			t.Errorf("point 5: BytePeriod = %g, want %g", got, want)
		}
		// Unswept parameters keep the base model's values.
		for i, m := range ms {
			if m.Model.Overhead != base.Overhead || m.Model.FlopTime != base.FlopTime {
				t.Errorf("point %d: unswept parameter changed: %+v", i, m.Model)
			}
		}
		// Names are unique and deterministic.
		seen := make(map[string]bool)
		for _, m := range ms {
			if m.Name == "" || seen[m.Name] {
				t.Errorf("bad or duplicate machine name %q", m.Name)
			}
			seen[m.Name] = true
		}
	})

	t.Run("absolute values", func(t *testing.T) {
		ms, err := parseMachineSweep("o=1e-6,2.5e-6", base)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != 2 {
			t.Fatalf("got %d points, want 2", len(ms))
		}
		if math.Abs(ms[1].Model.Overhead-2.5e-6) > 0 {
			t.Errorf("Overhead = %g, want 2.5e-6", ms[1].Model.Overhead)
		}
	})

	t.Run("errors", func(t *testing.T) {
		for _, spec := range []string{
			"",             // empty
			" ; ",          // only empty segments
			"L",            // no '='
			"Q=1x",         // unknown key
			"L=1x;L=2x",    // duplicate key
			"L=",           // no values
			"L=abc",        // unparsable
			"L=0x",         // non-positive (multiplier)
			"G=-1e-9",      // non-positive (absolute)
			"L=1x,oops,2x", // bad value mid-list
			"L=NaN",        // not a number (absolute)
			"L=inf",        // infinite (absolute)
			"G=NaNx",       // not a number (multiplier)
			"o=+Infx",      // infinite (multiplier)
		} {
			if _, err := parseMachineSweep(spec, base); err == nil {
				t.Errorf("spec %q: expected error, got nil", spec)
			}
		}
	})
}
