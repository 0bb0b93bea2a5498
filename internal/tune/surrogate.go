package tune

import "math"

// Surrogate is the learned cost model that prunes the exploded variant
// space: an online ridge regressor over the bounded feature vector of
// variant.go, trained on the log of measured seconds. Only the ranking
// matters — the tuner shortlists the lowest predicted times for real
// measurement — so a linear model over log-time with quadratic
// blocking terms is enough, and it is tiny, dependency-free and exactly
// reproducible: observations accumulate into a Gram matrix in call
// order and the solve is deterministic Gaussian elimination, so the
// same measurements in the same order always yield the same shortlist.
type Surrogate struct {
	d      int
	lambda float64
	// xtx accumulates XᵀX (d x d), xty accumulates Xᵀy.
	xtx []float64
	xty []float64
	n   int
	// w is the solved weight vector; nil until Fit succeeds.
	w []float64
}

// NewSurrogate returns an empty model for d-dimensional features.
func NewSurrogate(d int) *Surrogate {
	return &Surrogate{d: d, lambda: 1e-3, xtx: make([]float64, d*d), xty: make([]float64, d)}
}

// Observe folds one (features, seconds) measurement into the model.
// Non-positive or non-finite seconds are ignored — failed measurements
// must not poison the Gram matrix.
func (s *Surrogate) Observe(x []float64, sec float64) {
	if len(x) != s.d || !(sec > 0) || math.IsInf(sec, 0) {
		return
	}
	y := math.Log(sec)
	for i := 0; i < s.d; i++ {
		for j := 0; j < s.d; j++ {
			s.xtx[i*s.d+j] += x[i] * x[j]
		}
		s.xty[i] += x[i] * y
	}
	s.n++
	s.w = nil // stale
}

// Fit solves the ridge system (XᵀX + λI)w = Xᵀy and reports whether a
// usable model exists (it needs at least two observations; a singular
// system reports false).
func (s *Surrogate) Fit() bool {
	if s.w != nil {
		return true
	}
	if s.n < 2 {
		return false
	}
	d := s.d
	// Augmented [A | b] working copy; A = XᵀX + λI.
	a := make([]float64, d*(d+1))
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			a[i*(d+1)+j] = s.xtx[i*d+j]
		}
		a[i*(d+1)+i] += s.lambda
		a[i*(d+1)+d] = s.xty[i]
	}
	// Gaussian elimination with partial pivoting — branch decisions
	// depend only on accumulated values, never on iteration order.
	for col := 0; col < d; col++ {
		piv := col
		for r := col + 1; r < d; r++ {
			if math.Abs(a[r*(d+1)+col]) > math.Abs(a[piv*(d+1)+col]) {
				piv = r
			}
		}
		if math.Abs(a[piv*(d+1)+col]) < 1e-12 {
			return false
		}
		if piv != col {
			for j := 0; j <= d; j++ {
				a[col*(d+1)+j], a[piv*(d+1)+j] = a[piv*(d+1)+j], a[col*(d+1)+j]
			}
		}
		pv := a[col*(d+1)+col]
		for r := 0; r < d; r++ {
			if r == col {
				continue
			}
			f := a[r*(d+1)+col] / pv
			if f == 0 {
				continue
			}
			for j := col; j <= d; j++ {
				a[r*(d+1)+j] -= f * a[col*(d+1)+j]
			}
		}
	}
	w := make([]float64, d)
	for i := 0; i < d; i++ {
		w[i] = a[i*(d+1)+d] / a[i*(d+1)+i]
	}
	s.w = w
	return true
}

// Predict returns the model's log-seconds estimate for the feature
// vector. Callers must Fit first; Predict on an unfitted model returns
// 0 for every input (a constant ranking).
func (s *Surrogate) Predict(x []float64) float64 {
	if s.w == nil || len(x) != s.d {
		return 0
	}
	var y float64
	for i, v := range x {
		y += s.w[i] * v
	}
	return y
}
