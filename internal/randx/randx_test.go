package randx

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := New(43)
	same := true
	a2 := New(42)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatalf("different seeds produced identical streams")
	}
}

func TestUniformRange(t *testing.T) {
	s := New(1)
	for i := 0; i < 1000; i++ {
		v := s.Uniform(3, 7)
		if v < 3 || v >= 7 {
			t.Fatalf("uniform out of range: %v", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	s := New(7)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Exp(10)
	}
	mean := sum / n
	if math.Abs(mean-10) > 0.3 {
		t.Errorf("exp mean = %v, want ~10", mean)
	}
}

func TestLognormalMeanCV(t *testing.T) {
	s := New(11)
	sum, sumsq := 0.0, 0.0
	const n = 300000
	for i := 0; i < n; i++ {
		v := s.LognormalMeanCV(50, 1.5)
		if v <= 0 {
			t.Fatalf("lognormal draw <= 0")
		}
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	if math.Abs(mean-50)/50 > 0.05 {
		t.Errorf("lognormal mean = %v, want ~50", mean)
	}
	std := math.Sqrt(sumsq/n - mean*mean)
	cv := std / mean
	if math.Abs(cv-1.5)/1.5 > 0.1 {
		t.Errorf("lognormal cv = %v, want ~1.5", cv)
	}
}

func TestDiscrete(t *testing.T) {
	d := NewDiscrete([]float64{1, 10, 100}, []float64{1, 2, 1})
	if math.Abs(d.Mean()-(1*0.25+10*0.5+100*0.25)) > 1e-9 {
		t.Errorf("discrete mean = %v", d.Mean())
	}
	s := New(17)
	counts := map[float64]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[d.Sample(s)]++
	}
	if len(counts) != 3 {
		t.Fatalf("sampled %d distinct values, want 3", len(counts))
	}
	if f := float64(counts[10]) / n; math.Abs(f-0.5) > 0.02 {
		t.Errorf("P(10) = %v, want ~0.5", f)
	}
}

func TestSplitIndependence(t *testing.T) {
	s := New(23)
	a := s.Split()
	b := s.Split()
	same := true
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			same = false
		}
	}
	if same {
		t.Errorf("split sources produced identical streams")
	}
}

func TestPanics(t *testing.T) {
	cases := []func(){
		func() { New(1).LognormalMeanCV(-1, 1) },
		func() { NewDiscrete([]float64{1}, []float64{0}) },
		func() { NewDiscrete([]float64{1, 2}, []float64{1}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}
