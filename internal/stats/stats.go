// Package stats provides the statistical machinery for campaign
// analysis that the paper leaves as future work (§VII: "correlating the
// driver's prior experience with their driving performance"): rank and
// linear correlation, a Welch two-sample t-test, and a Mann–Whitney U
// test for comparing golden-run and faulty-run metric distributions.
//
// Everything is implemented from first principles on stdlib math — no
// external numerics packages — with normal approximations where exact
// small-sample distributions would need tables.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrTooFewSamples is returned when a test needs more data.
var ErrTooFewSamples = errors.New("stats: too few samples")

// Mean returns the arithmetic mean. It returns NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance (n−1 denominator).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// Pearson returns the linear correlation coefficient between paired
// samples.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: paired samples of different length (%d vs %d)", len(xs), len(ys))
	}
	if len(xs) < 3 {
		return 0, fmt.Errorf("%w: need ≥3 pairs, got %d", ErrTooFewSamples, len(xs))
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx <= 0 || syy <= 0 {
		return 0, fmt.Errorf("stats: zero variance in a sample")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// ranks assigns mid-ranks (ties averaged).
func ranks(xs []float64) []float64 {
	type iv struct {
		v float64
		i int
	}
	sorted := make([]iv, len(xs))
	for i, v := range xs {
		sorted[i] = iv{v, i}
	}
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].v < sorted[b].v })
	out := make([]float64, len(xs))
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j].v == sorted[i].v { //lint:allow floateq rank ties are defined by exact equality (SAE mid-rank); an epsilon would merge distinct values
			j++
		}
		// Mid-rank for the tie group [i, j).
		mid := float64(i+j-1)/2 + 1
		for k := i; k < j; k++ {
			out[sorted[k].i] = mid
		}
		i = j
	}
	return out
}

// Spearman returns the rank correlation coefficient between paired
// samples (ties handled with mid-ranks).
func Spearman(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: paired samples of different length (%d vs %d)", len(xs), len(ys))
	}
	return Pearson(ranks(xs), ranks(ys))
}

// TTestResult is the outcome of a Welch two-sample t-test.
type TTestResult struct {
	T  float64 // test statistic
	DF float64 // Welch–Satterthwaite degrees of freedom
	P  float64 // two-sided p-value
	// MeanA − MeanB, the effect direction.
	MeanDiff float64
}

// WelchTTest compares the means of two independent samples without
// assuming equal variances. The p-value uses the Student-t CDF computed
// via the regularized incomplete beta function.
func WelchTTest(a, b []float64) (TTestResult, error) {
	if len(a) < 2 || len(b) < 2 {
		return TTestResult{}, fmt.Errorf("%w: need ≥2 per group", ErrTooFewSamples)
	}
	ma, mb := Mean(a), Mean(b)
	va, vb := Variance(a), Variance(b)
	na, nb := float64(len(a)), float64(len(b))
	se2 := va/na + vb/nb
	if se2 <= 0 {
		return TTestResult{}, fmt.Errorf("stats: zero variance in both samples")
	}
	t := (ma - mb) / math.Sqrt(se2)
	df := se2 * se2 / (va*va/(na*na*(na-1)) + vb*vb/(nb*nb*(nb-1)))
	p := 2 * studentTSF(math.Abs(t), df)
	if p > 1 {
		p = 1
	}
	return TTestResult{T: t, DF: df, P: p, MeanDiff: ma - mb}, nil
}

// studentTSF returns P(T > t) for Student's t with df degrees of
// freedom, t ≥ 0.
func studentTSF(t, df float64) float64 {
	// P(T > t) = I_{df/(df+t²)}(df/2, 1/2) / 2.
	x := df / (df + t*t)
	return 0.5 * regIncBeta(df/2, 0.5, x)
}

// regIncBeta computes the regularized incomplete beta function
// I_x(a, b) with the standard continued-fraction expansion
// (Numerical Recipes §6.4).
func regIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(math.Log(x)*a + math.Log(1-x)*b + lbeta)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// betaCF evaluates the continued fraction for the incomplete beta
// function by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// UTestResult is the outcome of a Mann–Whitney U test.
type UTestResult struct {
	U float64 // the smaller U statistic
	Z float64 // normal approximation z-score
	P float64 // two-sided p-value (normal approximation)
}

// MannWhitneyU compares two independent samples without distributional
// assumptions, using the normal approximation with tie correction
// (adequate for n ≥ 8 per group; smaller groups get a conservative
// answer).
func MannWhitneyU(a, b []float64) (UTestResult, error) {
	if len(a) < 3 || len(b) < 3 {
		return UTestResult{}, fmt.Errorf("%w: need ≥3 per group", ErrTooFewSamples)
	}
	na, nb := float64(len(a)), float64(len(b))
	all := make([]float64, 0, len(a)+len(b))
	all = append(all, a...)
	all = append(all, b...)
	rk := ranks(all)
	var ra float64
	for i := range a {
		ra += rk[i]
	}
	ua := ra - na*(na+1)/2
	ub := na*nb - ua
	u := math.Min(ua, ub)

	// Tie correction for the variance. tieSum is a float reduction, so
	// the tie groups must be visited in sorted order — summing in map
	// order would leave the U-test p-value nondeterministic in its low
	// bits (the bug class teledrive-lint's maporderfloat rule exists for).
	n := na + nb
	counts := map[float64]float64{}
	for _, v := range all {
		counts[v]++
	}
	vals := make([]float64, 0, len(counts))
	for v := range counts {
		vals = append(vals, v) //lint:allow maporderfloat keys are sorted immediately below, before any float reduction
	}
	sort.Float64s(vals)
	var tieSum float64
	for _, v := range vals {
		c := counts[v]
		tieSum += c*c*c - c
	}
	mu := na * nb / 2
	sigma2 := na * nb / 12 * ((n + 1) - tieSum/(n*(n-1)))
	if sigma2 <= 0 {
		return UTestResult{}, fmt.Errorf("stats: degenerate samples (all ties)")
	}
	// Continuity correction.
	z := (u - mu + 0.5) / math.Sqrt(sigma2)
	p := 2 * normalSF(math.Abs(z))
	if p > 1 {
		p = 1
	}
	return UTestResult{U: u, Z: z, P: p}, nil
}

// normalSF returns P(Z > z) for the standard normal.
func normalSF(z float64) float64 {
	return 0.5 * math.Erfc(z/math.Sqrt2)
}
