package rayon

import "testing"

// mapPlan is the calendar as it was before it was indexed by position: one
// map entry per reserved slice, every start of the window tried in turn. Kept
// as the reference Plan must match, with MaxReserved over [from, to) and
// Forget, which deletes the entries of the slices before floor.
type mapPlan struct {
	capacity int
	quantum  int64
	used     map[int64]int
	floor    int64
}

func (p *mapPlan) Admit(jobID int, arrival, deadline int64, k int, estDur int64) *Reservation {
	if k <= 0 || k > p.capacity || estDur <= 0 {
		return nil
	}
	durSlices := (estDur + p.quantum - 1) / p.quantum
	firstSlice := arrival / p.quantum
	if arrival%p.quantum != 0 {
		firstSlice++
	}
	firstSlice = max(firstSlice, p.floor)
	lastStart := deadline/p.quantum - durSlices
	for s := firstSlice; s <= lastStart; s++ {
		ok := true
		for t := s; t < s+durSlices; t++ {
			if p.used[t]+k > p.capacity {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for t := s; t < s+durSlices; t++ {
			p.used[t] += k
		}
		return &Reservation{JobID: jobID, K: k, Start: s * p.quantum, End: (s + durSlices) * p.quantum}
	}
	return nil
}

func (p *mapPlan) Release(r *Reservation, at int64) {
	if r == nil || r.freed {
		return
	}
	r.freed = true
	from := at / p.quantum
	if at%p.quantum != 0 {
		from++
	}
	if from < r.Start/p.quantum {
		from = r.Start / p.quantum
	}
	from = max(from, p.floor)
	for t := from; t < r.End/p.quantum; t++ {
		p.used[t] -= r.K
		if p.used[t] == 0 {
			delete(p.used, t)
		}
	}
}

func (p *mapPlan) Forget(t int64) {
	p.floor = max(p.floor, t/p.quantum)
	for s := range p.used {
		if s < p.floor {
			delete(p.used, s)
		}
	}
}

func (p *mapPlan) Reserved(t int64) int { return p.used[t/p.quantum] }

func (p *mapPlan) MaxReserved(from, to int64) int {
	mx := 0
	end := to / p.quantum
	if to%p.quantum != 0 {
		end++
	}
	for s := from / p.quantum; s < end; s++ {
		mx = max(mx, p.used[s])
	}
	return mx
}

func sameReservation(got, want *Reservation) bool {
	if got == nil || want == nil {
		return got == want
	}
	return got.JobID == want.JobID && got.K == want.K && got.Start == want.Start && got.End == want.End
}

// FuzzPlanMatchesMapCalendar drives a Plan and the map calendar through the
// same Admit/Release/Reserved/MaxReserved/Forget sequence, read four bytes an
// operation from the input, and checks every reservation and every answer is
// equal. Arrivals jump back and forth, so requests land before the first
// reserved slice as well as after the last, and before the forgotten ones.
func FuzzPlanMatchesMapCalendar(f *testing.F) {
	f.Add([]byte{7, 3, 0, 40, 8, 30, 0, 0, 5, 20, 1, 0, 0, 2, 16, 3, 8, 40})
	f.Add([]byte{3, 0, 0, 200, 3, 9, 4, 0, 2, 9, 8, 10, 3, 50, 1, 0, 0, 60, 3, 0, 100})
	f.Add([]byte{15, 4, 0, 10, 15, 63, 4, 10, 15, 63, 8, 10, 15, 63, 1, 1, 30, 3, 0, 255})
	f.Add([]byte{3, 2, 0, 10, 2, 8, 0, 20, 2, 8, 4, 6, 0, 0, 0, 0, 2, 8, 2, 3, 0, 0, 3, 0, 10, 30, 1, 0, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		capacity, quantum := 1+int(data[0]%16), 1+int64(data[1]%5)
		p := NewPlan(capacity, quantum)
		ref := &mapPlan{capacity: capacity, quantum: quantum, used: map[int64]int{}}
		var live, refLive []*Reservation
		for i, op := 0, data[2:]; len(op) >= 4; i, op = i+1, op[4:] {
			a, b, c := int64(op[1]), int64(op[2]), int64(op[3])
			switch op[0] % 5 {
			case 0:
				arrival := a * int64(1+op[0]/4%4)
				k, dur := int(b)%(capacity+2), c%64
				deadline := arrival + dur + int64(op[0]/16)*8
				got, want := p.Admit(i, arrival, deadline, k, dur), ref.Admit(i, arrival, deadline, k, dur)
				if !sameReservation(got, want) {
					t.Fatalf("op %d: Admit(%d, %d, %d, %d, %d) = %+v, map calendar %+v", i, i, arrival, deadline, k, dur, got, want)
				}
				if got != nil {
					if p.Lookup(i) != got {
						t.Fatalf("op %d: Lookup(%d) = %+v, want %+v", i, i, p.Lookup(i), got)
					}
					live, refLive = append(live, got), append(refLive, want)
				}
			case 1:
				if len(live) == 0 {
					continue
				}
				j := int(a) % len(live)
				p.Release(live[j], b*2)
				ref.Release(refLive[j], b*2)
				if p.Lookup(live[j].JobID) != nil {
					t.Fatalf("op %d: job %d still live after Release", i, live[j].JobID)
				}
				if b%3 == 0 { // keep it listed: a second Release must change nothing
					continue
				}
				live, refLive = append(live[:j], live[j+1:]...), append(refLive[:j], refLive[j+1:]...)
			case 2:
				at := a * 4
				if got, want := p.Reserved(at), ref.Reserved(at); got != want {
					t.Fatalf("op %d: Reserved(%d) = %d, map calendar %d", i, at, got, want)
				}
			case 3:
				from, to := a*2, a*2+b+c
				if got, want := p.MaxReserved(from, to), ref.MaxReserved(from, to); got != want {
					t.Fatalf("op %d: MaxReserved(%d, %d) = %d, map calendar %d", i, from, to, got, want)
				}
			case 4:
				p.Forget(a * 2)
				ref.Forget(a * 2)
			}
		}
		for s := int64(0); s <= 1300/quantum; s++ {
			if got, want := p.at(s), ref.used[s]; got != want || got > capacity {
				t.Fatalf("slice %d holds %d, map calendar %d, capacity %d", s, got, want, capacity)
			}
		}
	})
}
