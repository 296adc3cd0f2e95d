package slab

import (
	"slices"
	"testing"
)

// TestGrowthRule: Grow and Sized keep a buffer that has the room; otherwise
// they reallocate to twice its capacity or a quarter more than asked for,
// whichever is more, Grow keeping the contents. A buffer that grows one
// element at a time is reallocated a logarithmic number of times.
func TestGrowthRule(t *testing.T) {
	buf := make([]int, 3, 8)
	buf[0], buf[1], buf[2] = 1, 2, 3
	if g := Grow(buf, 5); &g[:1][0] != &buf[0] {
		t.Error("Grow reallocated a buffer with room")
	}
	if g := Grow(buf, 6); cap(g) != 16 || !slices.Equal(g, buf) {
		t.Errorf("Grow past the room gave %v of capacity %d, want %v of 16", g, cap(g), buf)
	}
	if g := Grow(buf, 30); cap(g) != 41 {
		t.Errorf("Grow to 33 gave capacity %d, want 41", cap(g))
	}
	if s := Sized(buf, 8); len(s) != 8 || &s[0] != &buf[0] {
		t.Error("Sized reallocated a buffer with room")
	}
	if s := Sized(buf, 9); len(s) != 9 || cap(s) != 16 {
		t.Errorf("Sized to 9 gave %d of capacity %d, want 9 of 16", len(s), cap(s))
	}
	if s := Sized([]int(nil), 8); cap(s) != 10 {
		t.Errorf("Sized of nothing to 8 gave capacity %d, want 10", cap(s))
	}
	var b []int
	regrown := 0
	for i := 0; i < 1000; i++ {
		c := cap(b)
		if b = append(Grow(b, 1), i); cap(b) != c {
			regrown++
		}
	}
	if regrown > 11 {
		t.Errorf("1000 appends reallocated %d times", regrown)
	}
}
