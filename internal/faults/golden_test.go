package faults

import (
	"testing"

	"cachewrite/internal/cache"
	"cachewrite/internal/synth"
)

// TestInjectGoldenCounts pins the exact recovery accounting of every
// protection scheme at both paper-relevant line sizes, striking only
// the L1. Injection is documented to be deterministic for a given
// seed; these goldens turn that promise into a regression tripwire —
// any change to the RNG stream, the strike-selection loop or the
// classification rules shows up as a count drift here.
func TestInjectGoldenCounts(t *testing.T) {
	tr, err := synth.HotCold(3, 30000, 16, 16, 1<<16, 80, 40)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		lineSize int
		scheme   Scheme
		want     LayerReport
	}{
		{16, ByteParity, LayerReport{Injected: 364, Corrected: 276, RecoveredByRefetch: 276, DUE: 88, RefetchTraffic: 4416}},
		{16, WordSECECC, LayerReport{Injected: 364, Corrected: 328, CorrectedInPlace: 224, RecoveredByRefetch: 104, DUE: 36, RefetchTraffic: 1664}},
		{16, None, LayerReport{Injected: 364, SDC: 364}},
		{32, ByteParity, LayerReport{Injected: 263, Corrected: 212, RecoveredByRefetch: 212, DUE: 51, RefetchTraffic: 6784}},
		{32, WordSECECC, LayerReport{Injected: 263, Corrected: 240, CorrectedInPlace: 174, RecoveredByRefetch: 66, DUE: 23, RefetchTraffic: 2112}},
		{32, None, LayerReport{Injected: 263, SDC: 263}},
	}
	for _, tc := range cases {
		c := cache.Config{Size: 4 << 10, LineSize: tc.lineSize, Assoc: 1,
			WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite}
		rep := injectL1(t, c, tc.scheme, 50, 7, tr)
		if rep != tc.want {
			t.Errorf("line %d %s:\n got  %+v\n want %+v", tc.lineSize, tc.scheme, rep, tc.want)
		}
		if got := rep.Corrected + rep.DUE + rep.SDC; got != rep.Injected {
			t.Errorf("line %d %s: outcomes %d != injected %d", tc.lineSize, tc.scheme, got, rep.Injected)
		}
		if got := rep.CorrectedInPlace + rep.RecoveredByRefetch; got != rep.Corrected {
			t.Errorf("line %d %s: corrected by mechanism %d != corrected %d", tc.lineSize, tc.scheme, got, rep.Corrected)
		}
	}
}

// TestInjectSchemeOrdering checks the paper's §3 argument holds at
// both line sizes: ECC loses least, parity-only more, and an
// unprotected array loses everything it is struck with.
func TestInjectSchemeOrdering(t *testing.T) {
	tr, err := synth.HotCold(3, 30000, 16, 16, 1<<16, 80, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, ls := range []int{16, 32} {
		loss := map[Scheme]uint64{}
		for _, s := range []Scheme{ByteParity, WordSECECC, None} {
			c := cache.Config{Size: 4 << 10, LineSize: ls, Assoc: 1,
				WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite}
			rep := injectL1(t, c, s, 50, 7, tr)
			loss[s] = rep.DUE + rep.SDC
		}
		if !(loss[WordSECECC] < loss[ByteParity] && loss[ByteParity] < loss[None]) {
			t.Errorf("line %d: loss ordering violated: ecc %d, parity %d, none %d",
				ls, loss[WordSECECC], loss[ByteParity], loss[None])
		}
	}
}
