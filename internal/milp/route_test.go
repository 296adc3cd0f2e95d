package milp

import (
	"math"
	"testing"
)

// TestProductBelow pins the overflow-safe serial-routing comparison (the
// behavioral crossover itself is TestSerialRoutingCrossover in the root
// package): vars×rows products that would wrap a native int must keep their
// workers, never be routed to one.
func TestProductBelow(t *testing.T) {
	cases := []struct {
		a, b, limit int
		want        bool
	}{
		{0, 0, DefaultSerialCutoff, true}, // empty model is trivially small
		{0, math.MaxInt, DefaultSerialCutoff, true},
		{1, DefaultSerialCutoff - 1, DefaultSerialCutoff, true},
		{1, DefaultSerialCutoff, DefaultSerialCutoff, false},
		{90, 91, DefaultSerialCutoff, true},   // 8190 < 8192
		{64, 128, DefaultSerialCutoff, false}, // exactly 8192: not below
		{2896, 2896, DefaultSerialCutoff, false},
		{5, 7, 36, true},
		{5, 7, 35, false},
		// The bug this replaced: raw a*b wraps negative for sharded 10k-node
		// models and mis-routed them serial. Saturating compare must not.
		{3_100_000, 3_100_000, DefaultSerialCutoff, false},
		{math.MaxInt, math.MaxInt, DefaultSerialCutoff, false},
		{math.MaxInt, 2, math.MaxInt, false},
		{math.MaxInt - 1, 1, math.MaxInt, true},
		// limit ≤ 0 disables routing: nothing is "below".
		{1, 1, 0, false},
		{0, 0, -1, false},
	}
	for _, c := range cases {
		if got := productBelow(c.a, c.b, c.limit); got != c.want {
			t.Errorf("productBelow(%d, %d, %d) = %v, want %v", c.a, c.b, c.limit, got, c.want)
		}
	}
}
