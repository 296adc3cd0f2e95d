package rayon

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tetrisched/internal/cluster"
	"tetrisched/internal/workload"
)

func TestAdmitBasic(t *testing.T) {
	p := NewPlan(10, 4)
	r := p.Admit(1, 0, 100, 5, 20)
	if r == nil {
		t.Fatal("admit failed on empty plan")
	}
	if r.Start != 0 || r.End != 20 {
		t.Errorf("reservation window = [%d,%d), want [0,20)", r.Start, r.End)
	}
	if p.Reserved(10) != 5 {
		t.Errorf("reserved at t=10 is %d, want 5", p.Reserved(10))
	}
	if p.Lookup(1) != r {
		t.Errorf("lookup failed")
	}
}

func TestAdmitDefersWhenFull(t *testing.T) {
	p := NewPlan(10, 4)
	if p.Admit(1, 0, 1000, 10, 40) == nil {
		t.Fatal("first admit failed")
	}
	// Second job can't overlap [0,40); earliest start is 40.
	r := p.Admit(2, 0, 1000, 10, 40)
	if r == nil {
		t.Fatal("second admit failed")
	}
	if r.Start != 40 {
		t.Errorf("second reservation starts at %d, want 40", r.Start)
	}
}

func TestAdmitRejects(t *testing.T) {
	p := NewPlan(10, 4)
	if p.Admit(1, 0, 1000, 10, 40) == nil {
		t.Fatal("setup admit failed")
	}
	// Deadline too tight to fit after the existing reservation.
	if r := p.Admit(2, 0, 60, 10, 40); r != nil {
		t.Errorf("admit should reject: got [%d,%d)", r.Start, r.End)
	}
	// k larger than capacity.
	if p.Admit(3, 0, 1000, 11, 4) != nil {
		t.Errorf("k > capacity accepted")
	}
	// Zero duration.
	if p.Admit(4, 0, 1000, 1, 0) != nil {
		t.Errorf("zero duration accepted")
	}
}

func TestArrivalQuantization(t *testing.T) {
	p := NewPlan(4, 10)
	// Arrival mid-slice: reservation must not start before the arrival.
	r := p.Admit(1, 15, 100, 2, 10)
	if r == nil {
		t.Fatal("admit failed")
	}
	if r.Start < 15 {
		t.Errorf("reservation starts at %d, before arrival 15", r.Start)
	}
}

func TestReleaseFreesCapacity(t *testing.T) {
	p := NewPlan(10, 4)
	r := p.Admit(1, 0, 1000, 10, 40)
	if r == nil {
		t.Fatal("admit failed")
	}
	// Job finishes at t=20: the remainder of the window frees up.
	p.Release(r, 20)
	if p.Lookup(1) != nil {
		t.Errorf("reservation still live after release")
	}
	if got := p.Reserved(24); got != 0 {
		t.Errorf("reserved after release = %d, want 0", got)
	}
	// Double release is a no-op.
	p.Release(r, 20)
	// Capacity [20,40) is available again.
	r2 := p.Admit(2, 0, 1000, 10, 20)
	if r2 == nil || r2.Start != 20 {
		t.Fatalf("freed capacity not reusable: %+v", r2)
	}
}

func TestNeverOvercommitsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		capacity := 1 + r.Intn(20)
		p := NewPlan(capacity, 1+int64(r.Intn(5)))
		type res struct {
			r        *Reservation
			deadline int64
		}
		var live []res
		now := int64(0)
		for i := 0; i < 60; i++ {
			now += int64(r.Intn(10))
			switch r.Intn(3) {
			case 0, 1:
				k := 1 + r.Intn(capacity)
				dur := 1 + int64(r.Intn(30))
				deadline := now + dur + int64(r.Intn(100))
				if rv := p.Admit(i, now, deadline, k, dur); rv != nil {
					if rv.Start < now || rv.End > deadline+p.Quantum() {
						return false // window must respect arrival/deadline
					}
					live = append(live, res{rv, deadline})
				}
			case 2:
				if len(live) > 0 {
					idx := r.Intn(len(live))
					p.Release(live[idx].r, now)
					live = append(live[:idx], live[idx+1:]...)
				}
			}
			if p.MaxReserved(0, now+1000) > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestMaxReservedHalfOpen: MaxReserved reads [from, to), so a reservation
// starting at to does not show.
func TestMaxReservedHalfOpen(t *testing.T) {
	p := NewPlan(10, 4)
	if r := p.Admit(1, 8, 100, 3, 4); r == nil || r.Start != 8 || r.End != 12 {
		t.Fatalf("reservation = %+v, want [8,12)", r)
	}
	for _, c := range []struct {
		from, to int64
		want     int
	}{{0, 8, 0}, {0, 9, 3}, {8, 12, 3}, {11, 12, 3}, {12, 20, 0}, {0, 0, 0}} {
		if got := p.MaxReserved(c.from, c.to); got != c.want {
			t.Errorf("MaxReserved(%d, %d) = %d, want %d", c.from, c.to, got, c.want)
		}
	}
}

// TestAdmitBeforeFirstReserved: a request whose window lies before every
// reserved slice is placed there, and the later reservation stays put.
func TestAdmitBeforeFirstReserved(t *testing.T) {
	p := NewPlan(4, 2)
	late := p.Admit(1, 100, 200, 4, 10)
	early := p.Admit(2, 10, 60, 4, 20)
	if late == nil || late.Start != 100 || early == nil || early.Start != 10 || early.End != 30 {
		t.Fatalf("reservations %+v, %+v: want [100,110) and [10,30)", late, early)
	}
	for _, c := range []struct {
		t    int64
		want int
	}{{0, 0}, {10, 4}, {29, 4}, {30, 0}, {99, 0}, {100, 4}, {109, 4}, {110, 0}} {
		if got := p.Reserved(c.t); got != c.want {
			t.Errorf("Reserved(%d) = %d, want %d", c.t, got, c.want)
		}
	}
	if r := p.Admit(3, 4, 120, 1, 10); r == nil || r.Start != 30 {
		t.Errorf("third reservation %+v, want a start at 30", r)
	}
}

// TestForgetBoundsCalendar drives a plan as a long-running daemon does: each
// cycle forgets the slices before now, admits a short reservation and releases
// an older one. Over 10⁵ cycles the calendar spans no slice before now and none
// past the last reservation's end. After a jump of 10⁹ s the next Admit
// holds the reservation's few slices, not the gap's million: the plan's own
// footprint is checked, which no other goroutine's allocation moves.
func TestForgetBoundsCalendar(t *testing.T) {
	const q = 1000
	p := NewPlan(8, q)
	var live []*Reservation
	var now, end int64
	for c := 0; c < 100000; c++ {
		now = int64(c) * q
		p.Forget(now)
		if r := p.Admit(c, now, now+40*q, 2, 3*q); r != nil {
			live, end = append(live, r), max(end, r.End)
		}
		if len(live) > 3 {
			p.Release(live[0], now)
			live = live[1:]
		}
		if lo, hi := p.base, p.base+int64(len(p.used)); len(p.used) > 0 && (lo < now/q || hi > end/q) || cap(p.used) > 64 {
			t.Fatalf("cycle %d: calendar spans slices [%d, %d) in %d ints, want within [%d, %d)",
				c, lo, hi, cap(p.used), now/q, end/q)
		}
	}
	now += 1e9
	p.Forget(now)
	r := p.Admit(-1, now, now+40*q, 2, 3*q)
	if r == nil || r.Start != now {
		t.Fatalf("Admit after the jump = %+v, want a start at %d", r, now)
	}
	if cap(p.used) > 64 {
		t.Errorf("Admit after a jump of 10⁹ s left the calendar %d ints for %d slices", cap(p.used), len(p.used))
	}
}

// BenchmarkAdmit admits the SLO jobs of a GS HET stream at half load on the
// 1024-node front-door cluster, in arrival order, into a fresh plan.
func BenchmarkAdmit(b *testing.B) {
	c := cluster.Racked(1024, 32, 8)
	mix := workload.GSHET(450)
	mix.TargetUtil = 0.5
	jobs, err := workload.Generate(mix, c, 1)
	if err != nil {
		b.Fatal(err)
	}
	var slo []*workload.Job
	for _, j := range jobs {
		if j.Class == workload.SLO {
			slo = append(slo, j)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := NewPlan(c.N(), 4)
		for _, j := range slo {
			p.Admit(j.ID, j.Submit, j.Deadline, j.K, j.EstRuntime(true))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(slo)), "ns/admit")
}

func TestNewPlanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("NewPlan(0, …) did not panic")
		}
	}()
	NewPlan(0, 4)
}
