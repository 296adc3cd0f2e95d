package workload

import (
	"math"
	"reflect"
	"testing"

	"tetrisched/internal/cluster"
)

func TestRuntimeAndEstimates(t *testing.T) {
	j := &Job{BaseRuntime: 100, Slowdown: 1.5, EstErr: 0.2}
	if got := j.TrueRuntime(true); got != 100 {
		t.Errorf("preferred runtime = %d", got)
	}
	if got := j.TrueRuntime(false); got != 150 {
		t.Errorf("slowed runtime = %d", got)
	}
	if got := j.EstRuntime(true); got != 120 {
		t.Errorf("estimated preferred = %d", got)
	}
	if got := j.EstRuntime(false); got != 180 {
		t.Errorf("estimated slowed = %d", got)
	}
	under := &Job{BaseRuntime: 100, Slowdown: 1.5, EstErr: -0.5}
	if got := under.EstRuntime(true); got != 50 {
		t.Errorf("under-estimated = %d", got)
	}
	tiny := &Job{BaseRuntime: 1, Slowdown: 1, EstErr: -0.99}
	if got := tiny.EstRuntime(true); got < 1 {
		t.Errorf("estimate must be >= 1, got %d", got)
	}
}

func TestPlacementPreferred(t *testing.T) {
	c := cluster.RC80(true) // racks r0,r1 GPU-labeled
	gpuNodes := c.WithAttr(cluster.GPUAttr()).Indices()
	plain := c.Rack("r5").Indices()

	gpuJob := &Job{Type: GPU, K: 2}
	if !PlacementPreferred(c, gpuJob, gpuNodes[:2]) {
		t.Errorf("all-GPU placement should be preferred")
	}
	if PlacementPreferred(c, gpuJob, []int{gpuNodes[0], plain[0]}) {
		t.Errorf("mixed placement should not be preferred")
	}

	mpiJob := &Job{Type: MPI, K: 3}
	if !PlacementPreferred(c, mpiJob, plain[:3]) {
		t.Errorf("rack-local placement should be preferred")
	}
	cross := []int{plain[0], c.Rack("r6").Indices()[0], plain[1]}
	if PlacementPreferred(c, mpiJob, cross) {
		t.Errorf("cross-rack placement should not be preferred")
	}

	un := &Job{Type: Unconstrained, K: 2}
	if !PlacementPreferred(c, un, cross[:2]) {
		t.Errorf("unconstrained always preferred")
	}
	if ActualRuntime(c, &Job{Type: MPI, K: 2, BaseRuntime: 100, Slowdown: 2}, cross[:2]) != 200 {
		t.Errorf("cross-rack MPI should be slowed")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	c := cluster.RC80(true)
	a, err := Generate(GSHET(100), c, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(GSHET(100), c, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 100 || len(b) != 100 {
		t.Fatalf("job counts = %d, %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("job %d differs across identical seeds", i)
		}
	}
	diff, err := Generate(GSHET(100), c, 8)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if !reflect.DeepEqual(a[i], diff[i]) {
			same = false
			break
		}
	}
	if same {
		t.Errorf("different seeds produced identical workloads")
	}
}

func TestGenerateShapes(t *testing.T) {
	c := cluster.RC80(true)
	jobs, err := Generate(GSHET(2000), c, 42)
	if err != nil {
		t.Fatal(err)
	}
	var slo, gpu, mpi int
	maxRack := 0
	for _, r := range c.Racks() {
		if n := c.Rack(r).Count(); n > maxRack {
			maxRack = n
		}
	}
	prev := int64(-1)
	for _, j := range jobs {
		if j.Submit < prev {
			t.Fatalf("jobs not sorted by submit time")
		}
		prev = j.Submit
		if j.K < 1 || j.K > c.N() {
			t.Fatalf("bad gang size %d", j.K)
		}
		if j.BaseRuntime < 30 || j.BaseRuntime > 900 {
			t.Fatalf("runtime %d outside clip range", j.BaseRuntime)
		}
		switch j.Type {
		case GPU:
			gpu++
		case MPI:
			mpi++
			if j.K > maxRack {
				t.Fatalf("MPI job wider than any rack: %d", j.K)
			}
		}
		if j.Class == SLO {
			slo++
			if j.Deadline <= j.Submit+j.BaseRuntime {
				t.Fatalf("deadline %d leaves no slack (submit %d runtime %d)", j.Deadline, j.Submit, j.BaseRuntime)
			}
		} else if j.Deadline != 0 {
			t.Fatalf("BE job has a deadline")
		}
	}
	if f := float64(slo) / 2000; math.Abs(f-0.75) > 0.05 {
		t.Errorf("SLO fraction = %v, want ~0.75", f)
	}
	if f := float64(gpu) / 2000; math.Abs(f-0.5) > 0.05 {
		t.Errorf("GPU fraction = %v, want ~0.5", f)
	}
	if f := float64(mpi) / 2000; math.Abs(f-0.5) > 0.05 {
		t.Errorf("MPI fraction = %v, want ~0.5", f)
	}
}

func TestLoadCalibration(t *testing.T) {
	c := cluster.RC256(false)
	jobs, err := Generate(GRMIX(3000), c, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Offered load = total work / (capacity × span) should be near the
	// target of 1.0 (within the tolerance of heavy-tailed sampling).
	var work float64
	for _, j := range jobs {
		work += float64(j.K) * float64(j.BaseRuntime)
	}
	span := float64(jobs[len(jobs)-1].Submit)
	load := work / (float64(c.N()) * span)
	if load < 0.7 || load > 1.4 {
		t.Errorf("offered load = %v, want ≈1.0", load)
	}
}

func TestMixValidate(t *testing.T) {
	c := cluster.RC80(false)
	bad := GSMIX(10)
	bad.GPUFrac = 0.5 // fractions now sum to 1.5
	if _, err := Generate(bad, c, 1); err == nil {
		t.Errorf("invalid type fractions accepted")
	}
	bad2 := GSMIX(0)
	if _, err := Generate(bad2, c, 1); err == nil {
		t.Errorf("zero jobs accepted")
	}
	bad3 := GSMIX(10)
	bad3.DeadlineSlackMin = 0.5
	if _, err := Generate(bad3, c, 1); err == nil {
		t.Errorf("slack < 1 accepted")
	}
}

func TestEstErrPropagates(t *testing.T) {
	c := cluster.RC80(false)
	m := GSMIX(50)
	m.EstErr = -0.5
	jobs, err := Generate(m, c, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.EstErr != -0.5 {
			t.Fatalf("estimate error not propagated")
		}
	}
}

// TestGenerateSubmitOrder: Generate's stream is in submit order with IDs in
// stream order, for every mix and several seeds, without a sort: arrival
// times only accumulate.
func TestGenerateSubmitOrder(t *testing.T) {
	c := cluster.RC256(true)
	for _, mix := range []Mix{GRSLO(400), GRMIX(400), GSMIX(400), GSHET(400)} {
		for seed := int64(1); seed <= 5; seed++ {
			jobs, err := Generate(mix, c, seed)
			if err != nil {
				t.Fatal(err)
			}
			for i, j := range jobs {
				if j.ID != i || (i > 0 && j.Submit < jobs[i-1].Submit) {
					t.Fatalf("%s seed %d: job %d is %d submitted at %d, after %d", mix.Name, seed, i, j.ID, j.Submit, jobs[max(i-1, 0)].Submit)
				}
			}
		}
	}
}
