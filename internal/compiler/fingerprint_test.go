package compiler

import (
	"testing"
)

// TestSeedNilWithoutWantedMember pins the seed contract: a component none of
// whose jobs is wanted gets nil (no seed), not an all-zero vector the solver
// would mistake for a warm incumbent, and costs nothing — the buffer is
// neither grown nor cleared; a seeded component writes into the buffer it is
// handed, so a caller that keeps it allocates once.
func TestSeedNilWithoutWantedMember(t *testing.T) {
	n := 6
	c, err := Compile(blockJobs(n, 2), Options{Universe: n, Horizon: 4})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	comps := c.Components()
	if len(comps) != 2 {
		t.Fatalf("got %d components, want 2", len(comps))
	}
	want := []int32{-1, 2, -1, -1} // the last leaf of the second job, in component 0
	seed := comps[0].Seed(nil, want)
	if seed == nil {
		t.Fatal("component holding the wanted job got no seed")
	}
	stale := []float64{7, 7}
	if got := comps[1].Seed(stale, want); got != nil || stale[0] != 7 || stale[1] != 7 {
		t.Errorf("component without a wanted job got %v and left the buffer %v; want nil and untouched", got, stale)
	}
	for i := range seed {
		seed[i] = 7 // what an earlier cycle left behind
	}
	if again := comps[0].Seed(seed, want); &again[0] != &seed[0] || !comps[0].Model.IsFeasible(again, 1e-6) {
		t.Errorf("a second seed into the kept buffer is %v, not a feasible point in the buffer", again)
	}
	for ci, cc := range comps {
		if avg := testing.AllocsPerRun(20, func() { cc.Seed(seed, want) }); avg != 0 {
			t.Errorf("component %d: Seed into a kept buffer allocates %v times", ci, avg)
		}
	}
}

// TestComponentFingerprintStable: recompiling the identical batch yields the
// identical fingerprint per component — the property replay depends on.
func TestComponentFingerprintStable(t *testing.T) {
	n := 9
	rel := make([]int64, n)
	rel[0] = 1
	compile := func() *Compiled {
		c, err := Compile(blockJobs(n, 3), Options{Universe: n, Horizon: 4, ReleaseAt: rel})
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		return c
	}
	a, b := compile(), compile()
	ca, cb := a.Components(), b.Components()
	if len(ca) != len(cb) {
		t.Fatalf("component counts differ: %d vs %d", len(ca), len(cb))
	}
	for i := range ca {
		fa, fb := a.ComponentFingerprint(ca[i]), b.ComponentFingerprint(cb[i])
		if fa != fb {
			t.Errorf("component %d: fingerprints differ across identical compilations (%x vs %x)", i, fa, fb)
		}
	}
}

// TestComponentFingerprintBatchPositionInvariant: a component's fingerprint
// must not depend on where its jobs sit in the batch or on global group
// numbering — unrelated arrivals elsewhere in the cluster shift both, and the
// whole point of the cache is surviving them.
func TestComponentFingerprintBatchPositionInvariant(t *testing.T) {
	n := 9
	// Batch A: blocks 0,1,2. Batch B: only block 2's jobs (the block-2 jobs
	// drop from batch positions 4,5 to 0,1 and their group loses its global
	// numbering neighbors).
	full, err := Compile(blockJobs(n, 3), Options{Universe: n, Horizon: 4})
	if err != nil {
		t.Fatalf("compile full: %v", err)
	}
	solo, err := Compile(blockJobs(n, 3)[4:6], Options{Universe: n, Horizon: 4})
	if err != nil {
		t.Fatalf("compile solo: %v", err)
	}
	fullComps := full.Components()
	if len(fullComps) != 3 {
		t.Fatalf("full batch: %d components, want 3", len(fullComps))
	}
	soloComps := solo.Components()
	if len(soloComps) != 1 {
		t.Fatalf("solo batch: %d components, want 1", len(soloComps))
	}
	fa := full.ComponentFingerprint(fullComps[2])
	fb := solo.ComponentFingerprint(soloComps[0])
	if fa != fb {
		t.Errorf("block-2 component fingerprints differ with batch position (%x vs %x); names or global numbering leaked in", fa, fb)
	}
}

// TestComponentFingerprintSensitivity: inputs a sub-solve actually reads —
// release slices under the component's nodes, leaf values, and the seed
// vector (including nil vs all-zero) — must each move the fingerprint.
func TestComponentFingerprintSensitivity(t *testing.T) {
	n := 6
	base, err := Compile(blockJobs(n, 2), Options{Universe: n, Horizon: 4})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	baseComps := base.Components()
	fp0 := base.ComponentFingerprint(baseComps[0])
	fp1 := base.ComponentFingerprint(baseComps[1])

	// A release-slice change under block 0 moves component 0's print (its
	// availability ledger changed) but not component 1's.
	rel := make([]int64, n)
	rel[0] = 2
	shifted, err := Compile(blockJobs(n, 2), Options{Universe: n, Horizon: 4, ReleaseAt: rel})
	if err != nil {
		t.Fatalf("compile shifted: %v", err)
	}
	shiftedComps := shifted.Components()
	if got := shifted.ComponentFingerprint(shiftedComps[0]); got == fp0 {
		t.Error("release change under the component did not move its fingerprint")
	}
	if got := shifted.ComponentFingerprint(shiftedComps[1]); got != fp1 {
		t.Error("release change under block 0 moved block 1's fingerprint")
	}

	// Seed folding: nil, empty, and zero vectors are all distinct.
	zero := make([]float64, 4)
	if HashFloatsInto(fp0, nil) == HashFloatsInto(fp0, zero) {
		t.Error("nil seed hashes like an all-zero seed")
	}
	if HashFloatsInto(fp0, nil) == HashFloatsInto(fp0, []float64{}) {
		t.Error("nil seed hashes like an empty seed")
	}
	if HashFloatsInto(fp0, zero) == HashFloatsInto(fp0, []float64{0, 0, 0, 1}) {
		t.Error("seed contents do not move the hash")
	}
}
