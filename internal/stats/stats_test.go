package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean = %v", m)
	}
	if v := Variance(xs); !approx(v, 32.0/7, 1e-12) {
		t.Fatalf("variance = %v", v)
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Variance([]float64{1})) {
		t.Fatal("degenerate inputs should be NaN")
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil || !approx(r, 1, 1e-12) {
		t.Fatalf("r = %v, %v", r, err)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, _ = Pearson(xs, neg)
	if !approx(r, -1, 1e-12) {
		t.Fatalf("r = %v", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Pearson([]float64{1, 2}, []float64{3, 4}); err == nil {
		t.Fatal("too few samples accepted")
	}
	if _, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); err == nil {
		t.Fatal("zero variance accepted")
	}
}

func TestPearsonBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64()
		}
		r, err := Pearson(xs, ys)
		if err != nil {
			return true
		}
		return r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpearmanMonotone(t *testing.T) {
	// A monotone nonlinear relation: Spearman 1, Pearson < 1.
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Exp(x)
	}
	rs, err := Spearman(xs, ys)
	if err != nil || !approx(rs, 1, 1e-12) {
		t.Fatalf("spearman = %v, %v", rs, err)
	}
	rp, _ := Pearson(xs, ys)
	if rp >= 1-1e-9 {
		t.Fatalf("pearson = %v, want < 1 for nonlinear relation", rp)
	}
}

func TestSpearmanTies(t *testing.T) {
	xs := []float64{1, 2, 2, 3}
	ys := []float64{10, 20, 20, 30}
	r, err := Spearman(xs, ys)
	if err != nil || !approx(r, 1, 1e-12) {
		t.Fatalf("spearman with ties = %v, %v", r, err)
	}
}

func TestRanksMidrank(t *testing.T) {
	r := ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("ranks = %v", r)
		}
	}
}

func TestWelchTTestSameDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := make([]float64, 50)
	b := make([]float64, 60)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	res, err := WelchTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.01 {
		t.Fatalf("same-distribution p = %v, suspiciously small", res.P)
	}
}

func TestWelchTTestDifferentMeans(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := make([]float64, 40)
	b := make([]float64, 40)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range b {
		b[i] = rng.NormFloat64() + 2
	}
	res, err := WelchTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 1e-6 {
		t.Fatalf("2σ-separated means: p = %v, want tiny", res.P)
	}
	if res.MeanDiff >= 0 {
		t.Fatalf("mean diff = %v, want negative", res.MeanDiff)
	}
}

func TestWelchTTestKnownValue(t *testing.T) {
	// Cross-checked example: a = {1,2,3,4,5}, b = {3,4,5,6,7}.
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{3, 4, 5, 6, 7}
	res, err := WelchTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.T, -2, 1e-9) {
		t.Fatalf("t = %v, want -2", res.T)
	}
	if !approx(res.DF, 8, 1e-9) {
		t.Fatalf("df = %v, want 8", res.DF)
	}
	// p ≈ 0.0805 for t=2, df=8 (two-sided).
	if !approx(res.P, 0.0805, 0.002) {
		t.Fatalf("p = %v, want ≈0.0805", res.P)
	}
}

func TestStudentTSFAgainstKnownQuantiles(t *testing.T) {
	// t=1.812, df=10 → one-sided p = 0.05.
	if p := studentTSF(1.812, 10); !approx(p, 0.05, 0.002) {
		t.Fatalf("studentTSF(1.812, 10) = %v", p)
	}
	// t=2.228, df=10 → one-sided p = 0.025.
	if p := studentTSF(2.228, 10); !approx(p, 0.025, 0.002) {
		t.Fatalf("studentTSF(2.228, 10) = %v", p)
	}
}

func TestMannWhitneyUSeparated(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	b := []float64{10, 11, 12, 13, 14, 15, 16, 17}
	res, err := MannWhitneyU(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.U != 0 {
		t.Fatalf("U = %v, want 0 for fully separated samples", res.U)
	}
	if res.P > 0.001 {
		t.Fatalf("p = %v, want tiny", res.P)
	}
}

func TestMannWhitneyUOverlapping(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := make([]float64, 30)
	b := make([]float64, 30)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	res, err := MannWhitneyU(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.01 {
		t.Fatalf("same-distribution p = %v", res.P)
	}
}

func TestMannWhitneyUErrors(t *testing.T) {
	if _, err := MannWhitneyU([]float64{1, 2}, []float64{1, 2, 3}); err == nil {
		t.Fatal("too few samples accepted")
	}
	if _, err := MannWhitneyU([]float64{1, 1, 1}, []float64{1, 1, 1}); err == nil {
		t.Fatal("all-ties accepted")
	}
}

func TestRegIncBetaEdges(t *testing.T) {
	if regIncBeta(2, 3, 0) != 0 || regIncBeta(2, 3, 1) != 1 {
		t.Fatal("edges wrong")
	}
	// I_{0.5}(1, 1) = 0.5 (uniform).
	if p := regIncBeta(1, 1, 0.5); !approx(p, 0.5, 1e-9) {
		t.Fatalf("I_0.5(1,1) = %v", p)
	}
	// Symmetry: I_x(a,b) = 1 − I_{1−x}(b,a).
	for _, x := range []float64{0.1, 0.3, 0.7} {
		l := regIncBeta(2.5, 4, x)
		r := 1 - regIncBeta(4, 2.5, 1-x)
		if !approx(l, r, 1e-9) {
			t.Fatalf("symmetry broken at %v: %v vs %v", x, l, r)
		}
	}
}

func TestNormalSF(t *testing.T) {
	if p := normalSF(1.959964); !approx(p, 0.025, 1e-4) {
		t.Fatalf("normalSF(1.96) = %v", p)
	}
	if p := normalSF(0); !approx(p, 0.5, 1e-12) {
		t.Fatalf("normalSF(0) = %v", p)
	}
}
