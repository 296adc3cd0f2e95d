package strlgen

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"tetrisched/internal/bitset"
	"tetrisched/internal/cluster"
	"tetrisched/internal/strl"
	"tetrisched/internal/workload"
)

func gpuJob(k int) *workload.Job {
	return &workload.Job{
		ID: 1, Class: workload.SLO, Type: workload.GPU, Reserved: true,
		Submit: 0, K: k, BaseRuntime: 20, Slowdown: 1.5, Deadline: 200,
	}
}

func TestGPUOptions(t *testing.T) {
	c := cluster.RC80(true)
	g := New(c, Default(4, 40)) // 10 slices
	req := g.Generate(0, gpuJob(4))
	if req == nil {
		t.Fatal("nil request")
	}
	var pref, any int
	for _, o := range req.Options {
		switch o.Key {
		case "pref":
			pref++
			if !o.Preferred {
				t.Errorf("pref option not marked preferred")
			}
			if o.EstDur != 20 {
				t.Errorf("pref est = %d, want 20", o.EstDur)
			}
			if o.Leaf.Set.Count() != 20 { // RC80 het: 2 racks × 10 GPU nodes
				t.Errorf("pref set size = %d, want 20", o.Leaf.Set.Count())
			}
		case "any":
			any++
			if o.Preferred {
				t.Errorf("fallback marked preferred")
			}
			if o.EstDur != 30 {
				t.Errorf("fallback est = %d, want 30 (slowdown 1.5)", o.EstDur)
			}
		default:
			t.Errorf("unexpected option key %q", o.Key)
		}
	}
	// Preferred placements get full start resolution; fallbacks are capped
	// at FallbackStartChoices (default 4) to bound MILP size.
	if pref != 10 || any != 4 {
		t.Errorf("options pref=%d any=%d, want 10/4", pref, any)
	}
	if _, ok := req.Expr.(*strl.Max); !ok {
		t.Errorf("expr is %T, want max", req.Expr)
	}
	// Every option must be recoverable from its leaf.
	if err := aliasErr(req); err != nil {
		t.Error(err)
	}
}

func TestMPIOptionsPerRack(t *testing.T) {
	c := cluster.RC80(false)
	g := New(c, Default(4, 8)) // 2 slices
	j := &workload.Job{Class: workload.BestEffort, Type: workload.MPI, K: 4, BaseRuntime: 40, Slowdown: 2}
	req := g.Generate(0, j)
	if req == nil {
		t.Fatal("nil request")
	}
	racks := map[string]bool{}
	for _, o := range req.Options {
		if o.Key != "any" {
			racks[o.Key] = true
			if o.EstDur != 40 {
				t.Errorf("rack option est = %d", o.EstDur)
			}
			if o.Leaf.Set.Count() != 10 {
				t.Errorf("rack set size = %d", o.Leaf.Set.Count())
			}
		}
	}
	// Rack options are capped at MaxRackChoices (default 4); racks are
	// interchangeable equivalence sets, so the cap loses little.
	if len(racks) != 4 {
		t.Errorf("rack options for %d racks, want 4", len(racks))
	}
}

// TestMPIRackRotation: different jobs see different rack windows so the
// population covers the cluster.
func TestMPIRackRotation(t *testing.T) {
	c := cluster.RC80(false)
	g := New(c, Default(4, 8))
	seen := map[string]bool{}
	for id := 0; id < 8; id++ {
		j := &workload.Job{ID: id, Class: workload.BestEffort, Type: workload.MPI, K: 4, BaseRuntime: 40, Slowdown: 2}
		req := g.Generate(0, j)
		for _, o := range req.Options {
			if o.Key != "any" {
				seen[o.Key] = true
			}
		}
	}
	if len(seen) != 8 {
		t.Errorf("rotation covered %d racks, want all 8: %v", len(seen), seen)
	}
}

func TestDeadlineCulling(t *testing.T) {
	c := cluster.RC80(true)
	g := New(c, Default(4, 400))
	j := gpuJob(4)
	j.Deadline = 40 // only early starts on preferred nodes can make it
	req := g.Generate(0, j)
	if req == nil {
		t.Fatal("nil request")
	}
	for _, o := range req.Options {
		completion := o.Leaf.Start*4 + o.EstDur
		if completion > j.Deadline {
			t.Errorf("option %q@%d completes at %d after deadline %d", o.Key, o.Leaf.Start, completion, j.Deadline)
		}
	}
	// Preferred (20s est): starts 0..5 viable (start 20s + 20 = 40). Fallback
	// (30s est): starts 0..2 viable.
	if len(req.Options) == 0 {
		t.Fatal("no options survived culling")
	}

	// Deadline unreachable → nil (drop signal).
	j2 := gpuJob(4)
	j2.Deadline = 10
	if req := g.Generate(0, j2); req != nil {
		t.Errorf("expected nil request for unreachable deadline, got %d options", len(req.Options))
	}
	// Time moves past the deadline → nil.
	j3 := gpuJob(4)
	if req := g.Generate(1000, j3); req != nil {
		t.Errorf("expected nil request after deadline passed")
	}
}

func TestBEValueDecaysButFloors(t *testing.T) {
	c := cluster.RC80(false)
	cfg := Default(4, 8)
	cfg.BEDecay = 100
	g := New(c, cfg)
	j := &workload.Job{Class: workload.BestEffort, Type: workload.Unconstrained, K: 2, BaseRuntime: 20, Slowdown: 1}
	early := g.Generate(0, j)
	late := g.Generate(100000, j) // long after submission
	if early == nil || late == nil {
		t.Fatal("BE requests must never be culled")
	}
	if early.Options[0].Leaf.Value <= late.Options[0].Leaf.Value {
		t.Errorf("BE value should decay: early %v late %v", early.Options[0].Leaf.Value, late.Options[0].Leaf.Value)
	}
	if late.Options[0].Leaf.Value <= 0 {
		t.Errorf("BE value must floor above zero")
	}
}

func TestValueClasses(t *testing.T) {
	c := cluster.RC80(false)
	g := New(c, Default(4, 4))
	mk := func(class workload.Class, reserved bool) float64 {
		j := &workload.Job{Class: class, Reserved: reserved, Type: workload.Unconstrained,
			K: 2, BaseRuntime: 20, Slowdown: 1, Deadline: 10000}
		req := g.Generate(0, j)
		if req == nil {
			t.Fatal("nil request")
		}
		return req.Options[0].Leaf.Value
	}
	acc := mk(workload.SLO, true)
	nores := mk(workload.SLO, false)
	be := mk(workload.BestEffort, false)
	if !(acc > nores && nores > be) {
		t.Errorf("value ordering violated: accepted=%v no-res=%v be=%v", acc, nores, be)
	}
	if acc < 900 || nores < 20 || be > 2 {
		t.Errorf("values far from Fig 5: %v %v %v", acc, nores, be)
	}
}

func TestNoHeterogeneity(t *testing.T) {
	c := cluster.RC80(true)
	cfg := Default(4, 20)
	cfg.NoHeterogeneity = true
	g := New(c, cfg)
	req := g.Generate(0, gpuJob(4))
	if req == nil {
		t.Fatal("nil request")
	}
	for _, o := range req.Options {
		if o.Key != "any" {
			t.Errorf("NH produced placement option %q", o.Key)
		}
		if o.Leaf.Set.Count() != c.N() {
			t.Errorf("NH option set = %d nodes, want whole cluster", o.Leaf.Set.Count())
		}
		if o.EstDur != 30 {
			t.Errorf("NH est = %d, want conservative 30", o.EstDur)
		}
	}
}

func TestStartStride(t *testing.T) {
	c := cluster.RC80(false)
	cfg := Default(4, 400) // 100 slices
	cfg.MaxStartChoices = 10
	g := New(c, cfg)
	j := &workload.Job{Class: workload.BestEffort, Type: workload.Unconstrained, K: 2, BaseRuntime: 20, Slowdown: 1}
	req := g.Generate(0, j)
	if req == nil {
		t.Fatal("nil request")
	}
	if len(req.Options) > 10 {
		t.Errorf("%d options exceed MaxStartChoices", len(req.Options))
	}
}

func TestOversizeJobCulled(t *testing.T) {
	c := cluster.RC80(false)
	g := New(c, Default(4, 8))
	j := &workload.Job{Class: workload.BestEffort, Type: workload.Unconstrained, K: 81, BaseRuntime: 20, Slowdown: 1}
	if g.Generate(0, j) != nil {
		t.Errorf("job wider than cluster not culled")
	}
}

func TestEarlinessTieBreak(t *testing.T) {
	c := cluster.RC80(false)
	g := New(c, Default(4, 40))
	j := &workload.Job{Class: workload.SLO, Reserved: true, Type: workload.Unconstrained,
		K: 2, BaseRuntime: 20, Slowdown: 1, Deadline: 100000}
	req := g.Generate(0, j)
	prev := req.Options[0].Leaf.Value
	for _, o := range req.Options[1:] {
		if o.Leaf.Value >= prev {
			t.Errorf("later start %d not valued below earlier (%v >= %v)", o.Leaf.Start, o.Leaf.Value, prev)
		}
		prev = o.Leaf.Value
	}
}

func TestElasticWidthOptions(t *testing.T) {
	c := cluster.RC80(false)
	g := New(c, Default(4, 8))
	j := &workload.Job{Class: workload.BestEffort, Type: workload.Elastic,
		K: 8, MinK: 2, BaseRuntime: 40, Slowdown: 1}
	req := g.Generate(0, j)
	if req == nil {
		t.Fatal("nil request")
	}
	widths := map[int]int64{} // width -> est
	for _, o := range req.Options {
		widths[o.Leaf.K] = o.EstDur
	}
	if len(widths) != 3 {
		t.Fatalf("widths = %v, want 3 choices (2, 5, 8)", widths)
	}
	if widths[8] != 40 {
		t.Errorf("full width est = %d, want 40", widths[8])
	}
	if widths[2] != 160 {
		t.Errorf("min width est = %d, want 160 (40 × 8/2)", widths[2])
	}
	if mid, ok := widths[5]; !ok || mid != 64 {
		t.Errorf("mid width est = %d, want 64 (ceil(40×8/5))", mid)
	}
}

func TestElasticRigidWhenNoMinK(t *testing.T) {
	c := cluster.RC80(false)
	g := New(c, Default(4, 8))
	j := &workload.Job{Class: workload.BestEffort, Type: workload.Elastic,
		K: 8, BaseRuntime: 40, Slowdown: 1} // MinK unset → rigid
	req := g.Generate(0, j)
	for _, o := range req.Options {
		if o.Leaf.K != 8 {
			t.Errorf("rigid elastic offered width %d", o.Leaf.K)
		}
	}
}

func BenchmarkGenerateGSHETJob(b *testing.B) {
	c := cluster.RC80(true)
	g := New(c, Default(4, 96))
	j := &workload.Job{ID: 3, Class: workload.SLO, Reserved: true, Type: workload.MPI,
		K: 6, BaseRuntime: 180, Slowdown: 1.5, Deadline: 900}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.Generate(0, j) == nil {
			b.Fatal("nil request")
		}
	}
}

// ttlSummary reduces a request to the fields the scheduler's expression cache
// must keep byte-identical: option keys, window-relative starts, widths,
// durations, and leaf values.
type ttlSummary struct {
	Key   string
	Start int64
	K     int
	Dur   int64
	Value float64
}

// sameRequest is reflect.DeepEqual on two requests, except that a MAX with no
// kids compares equal whether its kids are nil, as in a new request, or empty,
// as in one with a single option that keeps the memory of its kids.
func sameRequest(a, b *Request) bool {
	if len(a.max.Kids) == 0 && len(b.max.Kids) == 0 {
		ca, cb := *a, *b
		ca.max.Kids, cb.max.Kids = nil, nil
		a, b = &ca, &cb
	}
	return reflect.DeepEqual(a, b)
}

func summarize(req *Request) []ttlSummary {
	if req == nil {
		return nil
	}
	out := make([]ttlSummary, len(req.Options))
	for i, o := range req.Options {
		out[i] = ttlSummary{Key: o.Key, Start: o.Leaf.Start, K: o.Leaf.K, Dur: o.Leaf.Dur, Value: o.Leaf.Value}
	}
	return out
}

// TestGenerateTTLBoundsReuse pins the expiry bound that licenses the
// scheduler's expression cache: regenerating at any time up to and including
// validUntil yields a window-relative request identical to the cached one,
// and regenerating one quantum past it does not.
func TestGenerateTTLBoundsReuse(t *testing.T) {
	c := cluster.RC80(false)

	t.Run("slo deadline cull", func(t *testing.T) {
		g := New(c, Default(4, 16)) // 4 slices, starts s = 0..3
		j := &workload.Job{ID: 1, Class: workload.SLO, Reserved: true, Type: workload.Unconstrained,
			Submit: 0, K: 2, BaseRuntime: 20, Slowdown: 1, Deadline: 100}
		req, until := g.GenerateTTL(0, j)
		if req == nil {
			t.Fatal("nil request")
		}
		// The binding option is the last start (s=3): its completion is
		// now+4*3+20, which meets the deadline exactly until now = 68.
		if until != 68 {
			t.Fatalf("validUntil = %d, want 68 (deadline 100 - last-start completion offset 32)", until)
		}
		base := summarize(req)
		for _, now := range []int64{4, 36, until} {
			if got := summarize(g.Generate(now, j)); !reflect.DeepEqual(got, base) {
				t.Errorf("regeneration at now=%d (<= validUntil) diverged:\n  cached %v\n  fresh  %v", now, base, got)
			}
		}
		if got := summarize(g.Generate(until+4, j)); reflect.DeepEqual(got, base) {
			t.Errorf("regeneration at now=%d (past validUntil) still identical; the bound is not tight", until+4)
		}
	})

	t.Run("best-effort decaying", func(t *testing.T) {
		cfg := Default(4, 16)
		cfg.BEDecay = 100
		g := New(c, cfg)
		j := &workload.Job{ID: 2, Class: workload.BestEffort, Type: workload.Unconstrained,
			Submit: 0, K: 2, BaseRuntime: 20, Slowdown: 1}
		req, until := g.GenerateTTL(0, j)
		if req == nil {
			t.Fatal("nil request")
		}
		if until != 0 {
			t.Fatalf("validUntil = %d for a still-decaying best-effort value, want 0 (the generation instant only)", until)
		}
		if got := summarize(g.Generate(4, j)); reflect.DeepEqual(got, summarize(req)) {
			t.Error("decaying best-effort request identical one quantum later; its leaf values must have moved")
		}
	})

	t.Run("best-effort floored forever", func(t *testing.T) {
		cfg := Default(4, 16)
		cfg.BEDecay = 100
		g := New(c, cfg)
		// Submitted far in the past: the decayed value sits on the BEFloor
		// clamp and never moves again.
		j := &workload.Job{ID: 3, Class: workload.BestEffort, Type: workload.Unconstrained,
			Submit: -100000, K: 2, BaseRuntime: 20, Slowdown: 1}
		req, until := g.GenerateTTL(0, j)
		if req == nil {
			t.Fatal("nil request")
		}
		if until != math.MaxInt64 {
			t.Fatalf("validUntil = %d for a floored best-effort value, want MaxInt64 (never expires)", until)
		}
		for _, now := range []int64{400, 100000} {
			if got := summarize(g.Generate(now, j)); !reflect.DeepEqual(got, summarize(req)) {
				t.Errorf("floored best-effort request diverged at now=%d; the clamp makes it time-invariant", now)
			}
		}
	})

	t.Run("culled job", func(t *testing.T) {
		g := New(c, Default(4, 16))
		j := &workload.Job{ID: 4, Class: workload.SLO, Type: workload.Unconstrained,
			Submit: 0, K: 2, BaseRuntime: 200, Slowdown: 1, Deadline: 100}
		if req, _ := g.GenerateTTL(0, j); req != nil {
			t.Error("unsatisfiable job produced a request")
		}
	})
}

// aliasErr reports how req's expression fails to point into its options: a
// lone option's leaf must be Expr itself, the MAX's kid i must be option i's
// leaf, and OptionFor must lead from each leaf back to its option.
// reflect.DeepEqual cannot see a kid left pointing at a stale slot that holds
// equal values.
func aliasErr(req *Request) error {
	n := len(req.Options)
	if n == 1 {
		if req.Expr != strl.Expr(&req.Options[0].Leaf) || req.OptionFor(req.Expr) != &req.Options[0] {
			return fmt.Errorf("the lone option's leaf is not Expr, or OptionFor does not find it")
		}
		return nil
	}
	m, ok := req.Expr.(*strl.Max)
	if !ok || len(m.Kids) != n {
		return fmt.Errorf("%d options under a %T", n, req.Expr)
	}
	for i, kid := range m.Kids {
		if kid != strl.Expr(&req.Options[i].Leaf) || req.OptionFor(kid) != &req.Options[i] {
			return fmt.Errorf("kid %d of %d is not option %d's leaf, or OptionFor does not lead back to it", i, n, i)
		}
	}
	return nil
}

// TestGenerateAllocsIndependentOfOptions: a request, its options (leaves
// inside) and the MAX's kids are one allocation each, and enumerating the
// placements allocates nothing, so for every job type generating a request
// with many options allocates exactly as often as one with few — and the
// options are cut to the count, with the kids pointing at their leaves in
// order. A placement's Place is interned, elastic widths too, so an Elastic or
// MPI request allocates no more than an Unconstrained one; a DataLocal one
// builds its job's data-node set on top.
func TestGenerateAllocsIndependentOfOptions(t *testing.T) {
	c := cluster.RC80(true)
	few, many := Default(4, 40), Default(4, 40)
	few.MaxStartChoices, few.FallbackStartChoices = 2, 1
	jobs := []*workload.Job{
		{ID: 1, Class: workload.BestEffort, Type: workload.Unconstrained, K: 4, BaseRuntime: 20, Slowdown: 1.5},
		gpuJob(4),
		{ID: 3, Class: workload.BestEffort, Type: workload.MPI, K: 4, BaseRuntime: 20, Slowdown: 1.5},
		{ID: 4, Class: workload.BestEffort, Type: workload.Elastic, K: 8, MinK: 2, BaseRuntime: 20, Slowdown: 1},
		{ID: 5, Class: workload.BestEffort, Type: workload.DataLocal, K: 2, BaseRuntime: 20, Slowdown: 1.5, DataNodes: []int{3, 4, 5}},
	}
	byType := map[workload.Type]float64{}
	for _, j := range jobs {
		allocs := map[int]float64{}
		var last float64
		for _, cfg := range []Config{few, many} {
			g := New(c, cfg)
			req := g.Generate(0, j)
			n := len(req.Options)
			if cap(req.Options) != n || len(req.Expr.(*strl.Max).Kids) != n {
				t.Errorf("%v: %d options in lists of cap %d and %d kids", j.Type, n, cap(req.Options), len(req.Expr.(*strl.Max).Kids))
			}
			if err := aliasErr(req); err != nil {
				t.Fatal(err)
			}
			last = testing.AllocsPerRun(50, func() { g.Generate(0, j) })
			allocs[n] = last
		}
		if len(allocs) != 2 {
			t.Fatalf("%v: both configurations give %v options; the test needs two counts", j.Type, allocs)
		}
		for _, a := range allocs {
			if a != last {
				t.Errorf("%v: allocations per request by option count: %v, want the same for every count", j.Type, allocs)
			}
		}
		byType[j.Type] = last
	}
	t.Logf("allocations per request by job type: %v", byType)
	for _, typ := range []workload.Type{workload.Elastic, workload.MPI} {
		if byType[typ] > byType[workload.Unconstrained] {
			t.Errorf("a %v request allocates %v times, an Unconstrained one %v", typ, byType[typ], byType[workload.Unconstrained])
		}
	}
}

// TestOptionSize: an option is its Place pointer, its runtime and its leaf;
// what a placement's options share is not repeated in each.
func TestOptionSize(t *testing.T) {
	if size := unsafe.Sizeof(Option{}); size > 56 {
		t.Errorf("Option is %d bytes, want at most 56", size)
	}
}

// TestRequestNodesIsTheOptionsUnion: Request.Nodes holds exactly the nodes
// some option could use — what the scheduler couples jobs by — and is one of
// the placement sets itself whenever they nest.
func TestRequestNodesIsTheOptionsUnion(t *testing.T) {
	c := cluster.RC80(true)
	g := New(c, Default(4, 48))
	for _, j := range []*workload.Job{
		{ID: 1, Class: workload.BestEffort, Type: workload.GPU, K: 2, BaseRuntime: 20, Slowdown: 2},
		{ID: 2, Class: workload.BestEffort, Type: workload.MPI, K: 3, BaseRuntime: 20, Slowdown: 2},
		{ID: 3, Class: workload.BestEffort, Type: workload.Elastic, K: 4, MinK: 1, BaseRuntime: 20, Slowdown: 1},
		// The whole-cluster fallbacks of these two are worthless against their
		// deadlines: the data nodes, and four racks, are all they can use.
		{ID: 4, Class: workload.SLO, Type: workload.DataLocal, K: 2, BaseRuntime: 20, Slowdown: 10, Deadline: 60, DataNodes: []int{3, 4, 5}},
		{ID: 5, Class: workload.SLO, Type: workload.MPI, K: 3, BaseRuntime: 20, Slowdown: 10, Deadline: 60},
	} {
		req := g.Generate(0, j)
		if req == nil {
			t.Fatalf("job %d: no request", j.ID)
		}
		want := bitset.New(c.N())
		nested := false
		for _, o := range req.Options {
			want.UnionWith(o.Leaf.Set)
		}
		for _, o := range req.Options {
			nested = nested || o.Leaf.Set.Equal(want)
		}
		if !req.Nodes.Equal(want) {
			t.Errorf("job %d: Nodes %v, the options' sets cover %v", j.ID, req.Nodes, want)
		}
		if nested && !slices.ContainsFunc(req.Options, func(o Option) bool { return o.Leaf.Set == req.Nodes }) {
			t.Errorf("job %d: one placement holds the rest, yet Nodes is a set of its own", j.ID)
		}
		if j.ID >= 4 && req.Nodes.Count() == c.N() {
			t.Errorf("job %d: Nodes is the whole cluster; its fallback should have been worthless", j.ID)
		}
	}
}

// TestRepriceMatchesGenerate: a request re-priced for a later cycle is the
// request GenerateTTL makes for that cycle, field for field and bit for bit
// (Rev apart, and a MAX with no kids nil or empty alike: sameRequest), with
// the same expiry bound, whether it kept every option or lost some — or
// Reprice says no option is left, and then GenerateTTL makes none. Over every
// job type, both classes, floors of 0 and above it, and an earliness weight
// large enough to reach the 0.1 clamp.
func TestRepriceMatchesGenerate(t *testing.T) {
	c := cluster.RC80(true)
	repriced, trimmed, dropped, clamped, floored := 0, 0, 0, 0, 0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := Default(4, int64(4*(4+r.Intn(20))))
		cfg.BEDecay = int64(40 + r.Intn(400))
		if r.Intn(2) == 0 {
			cfg.BEFloor = 0
		}
		if r.Intn(3) == 0 {
			cfg.EarlinessEps = 0.05 // 18 slices of delay reach the clamp
		}
		g := New(c, cfg)
		j := &workload.Job{ID: r.Intn(100), Class: workload.BestEffort, Type: workload.Type(r.Intn(5)),
			Submit: int64(4 * r.Intn(10)), K: 1 + r.Intn(6), BaseRuntime: int64(4 * (1 + r.Intn(12))),
			Slowdown: 1 + float64(r.Intn(3)), Priority: float64(r.Intn(3))}
		switch j.Type {
		case workload.Elastic:
			j.MinK = 1
		case workload.DataLocal:
			for n := 0; n < j.K+2; n++ {
				j.DataNodes = append(j.DataNodes, 3*n)
			}
		}
		if r.Intn(4) == 0 {
			j.Class, j.Deadline = workload.SLO, j.Submit+int64(40+r.Intn(200))
		}
		now := j.Submit
		req, until := g.GenerateTTL(now, j)
		for step := 0; step < 40 && req != nil; step++ {
			now += 4 * int64(1+r.Intn(3))
			fresh, freshUntil := g.GenerateTTL(now, j)
			if now <= until {
				continue // still valid as it stands; TestGenerateTTLBoundsReuse
			}
			nOptions := len(req.Options)
			got, ok := g.Reprice(now, req)
			if !ok {
				if fresh != nil {
					t.Logf("seed %d: Reprice left nothing at now=%d, but the fresh request has %d options", seed, now, len(fresh.Options))
					return false
				}
				dropped++
				break
			}
			if fresh == nil {
				t.Logf("seed %d: re-priced at now=%d a request that no longer exists", seed, now)
				return false
			}
			fresh.Rev = req.Rev
			if !sameRequest(req, fresh) || got != freshUntil {
				t.Logf("seed %d: re-priced at now=%d (valid until %d):\n  %+v\nfresh (valid until %d):\n  %+v", seed, now, got, summarize(req), freshUntil, summarize(fresh))
				return false
			}
			if err := aliasErr(req); err != nil {
				t.Logf("seed %d: re-priced at now=%d: %v", seed, now, err)
				return false
			}
			if len(req.Options) < nOptions {
				trimmed++
			} else {
				repriced++
			}
			for _, o := range req.Options {
				completion := now + o.Leaf.Start*cfg.Quantum + o.EstDur
				if 1-cfg.EarlinessEps*float64(completion-now)/float64(cfg.Quantum) < 0.1 {
					clamped++
				}
			}
			if j.Class == workload.BestEffort && got == math.MaxInt64 {
				floored++
			}
			until = got
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if repriced == 0 || trimmed == 0 || dropped == 0 || clamped == 0 || floored == 0 {
		t.Errorf("%d re-priced, %d trimmed, %d dropped, %d options on the earliness clamp, %d requests on the floor: a case went untested",
			repriced, trimmed, dropped, clamped, floored)
	}
}

// TestRecycledRequestIsFresh: GenerateTTL issues a recycled request again, to
// another job, before it makes one. The request it issues is, Rev apart,
// field for field the one a fresh Generator makes for that job, expiry bound
// included, whether its options fitted the old memory or needed new; its Rev
// is past every one it held before, re-pricing included; and a Generator that
// has issued k requests at once makes no more than k, however often they come
// back. Issued again, an Unconstrained request allocates nothing.
func TestRecycledRequestIsFresh(t *testing.T) {
	c := cluster.RC80(true)
	cfg := Default(4, 40)
	jobs := []*workload.Job{ // the first has the fewest options, the second the most
		{ID: 6, Class: workload.SLO, Type: workload.GPU, K: 2, BaseRuntime: 8, Slowdown: 2, Deadline: 24},
		{ID: 3, Class: workload.BestEffort, Type: workload.MPI, K: 4, BaseRuntime: 20, Slowdown: 1.5},
		{ID: 1, Class: workload.BestEffort, Type: workload.Unconstrained, K: 4, BaseRuntime: 20, Slowdown: 1.5},
		gpuJob(4),
		{ID: 4, Class: workload.BestEffort, Type: workload.Elastic, K: 8, MinK: 2, BaseRuntime: 20, Slowdown: 1},
		{ID: 5, Class: workload.SLO, Reserved: true, Type: workload.DataLocal, K: 2, BaseRuntime: 20, Slowdown: 1.5,
			DataNodes: []int{3, 4, 5}, Deadline: 60},
	}
	g := New(c, cfg)
	now := int64(0)
	req, _ := g.GenerateTTL(now, jobs[0])
	fitted, regrown := 0, 0
	for round := 0; round < 3; round++ {
		for i, j := range jobs {
			prev := req
			if round > 0 && i%2 == 0 {
				g.Reprice(now+8, prev)
			}
			last, room := prev.Rev, cap(prev.Options)
			g.Recycle(prev)
			var until int64
			req, until = g.GenerateTTL(now, j)
			if req != prev {
				t.Fatalf("round %d, job %d: GenerateTTL made a request with one recycled", round, j.ID)
			}
			if req.Rev <= last {
				t.Errorf("round %d, job %d: issued again at Rev %d, held at %d before", round, j.ID, req.Rev, last)
			}
			if room >= len(req.Options) {
				fitted++
			} else {
				regrown++
			}
			fresh, freshUntil := New(c, cfg).GenerateTTL(now, j)
			fresh.Rev = req.Rev
			if !reflect.DeepEqual(req, fresh) || until != freshUntil {
				t.Errorf("round %d, job %d: issued again (valid until %d):\n  %+v\nfresh (valid until %d):\n  %+v",
					round, j.ID, until, summarize(req), freshUntil, summarize(fresh))
			}
			if err := aliasErr(req); err != nil {
				t.Errorf("round %d, job %d: %v", round, j.ID, err)
			}
		}
		now += 4
	}
	if fitted == 0 || regrown == 0 {
		t.Errorf("%d requests issued again in their own memory, %d in new: a case went untested", fitted, regrown)
	}

	made := map[*Request]bool{req: true}
	issued := []*Request{req}
	for _, j := range jobs[1:] {
		issued = append(issued, g.Generate(now, j))
		made[issued[len(issued)-1]] = true
	}
	for round := 1; round <= 3; round++ {
		for _, r := range issued {
			g.Recycle(r)
		}
		for i := range issued {
			issued[i] = g.Generate(now, jobs[(i+round)%len(jobs)])
			made[issued[i]] = true
		}
		if len(made) != len(jobs) || len(g.free) != 0 {
			t.Errorf("round %d: %d requests made for %d at once, %d left on the free list", round, len(made), len(jobs), len(g.free))
		}
	}

	u := jobs[2]
	g.Recycle(g.Generate(now, u))
	if n := testing.AllocsPerRun(50, func() { g.Recycle(g.Generate(now, u)) }); n != 0 {
		t.Errorf("an Unconstrained request issued again allocates %v times", n)
	}
}
