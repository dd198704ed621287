package predict

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestLinearModelRecoversLine(t *testing.T) {
	m := NewLinearModel(10)
	for x := 1.0; x <= 8; x++ {
		m.Observe(x, 3*x+5)
	}
	slope, intercept := m.Fit()
	if math.Abs(slope-3) > 1e-9 || math.Abs(intercept-5) > 1e-9 {
		t.Errorf("Fit = (%g, %g), want (3, 5)", slope, intercept)
	}
	if got := m.Predict(20); math.Abs(got-65) > 1e-9 {
		t.Errorf("Predict(20) = %g, want 65", got)
	}
}

func TestLinearModelWindowEviction(t *testing.T) {
	m := NewLinearModel(3)
	// Old regime y = x; new regime y = 10x. After 3 new points the old
	// ones must be gone.
	for x := 1.0; x <= 5; x++ {
		m.Observe(x, x)
	}
	for x := 6.0; x <= 8; x++ {
		m.Observe(x, 10*x)
	}
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3", m.Len())
	}
	slope, _ := m.Fit()
	if math.Abs(slope-10) > 1e-6 {
		t.Errorf("slope after eviction = %g, want 10", slope)
	}
}

func TestLinearModelDegenerateCases(t *testing.T) {
	var m LinearModel // zero value usable
	if s, i := m.Fit(); s != 0 || i != 0 {
		t.Errorf("empty Fit = (%g, %g), want (0, 0)", s, i)
	}
	m.Observe(4, 7)
	if s, i := m.Fit(); s != 0 || i != 7 {
		t.Errorf("single-point Fit = (%g, %g), want (0, 7)", s, i)
	}
	// Constant x: flat model through mean of y.
	m2 := NewLinearModel(5)
	m2.Observe(2, 10)
	m2.Observe(2, 20)
	if s, i := m2.Fit(); s != 0 || i != 15 {
		t.Errorf("constant-x Fit = (%g, %g), want (0, 15)", s, i)
	}
}

// Property: for points exactly on a line, prediction error is ~0 regardless
// of the line parameters.
func TestLinearModelExactFitProperty(t *testing.T) {
	f := func(slopeRaw, interRaw int16) bool {
		slope := float64(slopeRaw) / 16
		inter := float64(interRaw) / 16
		m := NewLinearModel(10)
		for x := 0.0; x < 6; x++ {
			m.Observe(x, slope*x+inter)
		}
		return math.Abs(m.Predict(10)-(slope*10+inter)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRunTimePredictorMarginAndClamp(t *testing.T) {
	p := NewRunTimePredictor(10, 2*time.Millisecond)
	// Decreasing trend that would predict negative at large x.
	p.Observe(1, 100*time.Microsecond)
	p.Observe(2, 50*time.Microsecond)
	p.Observe(3, 0)
	if got := p.Predict(3); got < 2*time.Millisecond {
		t.Errorf("Predict(3) = %v, want at least the margin", got)
	}
	pNeg := NewRunTimePredictor(10, 0)
	pNeg.Observe(1, 100*time.Microsecond)
	pNeg.Observe(2, 0)
	if got := pNeg.Predict(100); got != 0 {
		t.Errorf("Predict should clamp negatives to 0, got %v", got)
	}
	if n := p.Observations(); n != 3 {
		t.Errorf("Observations = %d, want 3", n)
	}
}

func TestRunTimePredictorLearnsLinearCost(t *testing.T) {
	p := NewRunTimePredictor(10, 0)
	// Greedy cost ~ 10us per tuple.
	for size := 2; size <= 10; size++ {
		p.Observe(size, time.Duration(size)*10*time.Microsecond)
	}
	got := p.Predict(20)
	want := 200 * time.Microsecond
	if got < want-time.Microsecond || got > want+time.Microsecond {
		t.Errorf("Predict(20) = %v, want ~%v", got, want)
	}
}

func TestLinearModelString(t *testing.T) {
	m := NewLinearModel(5)
	m.Observe(1, 2)
	m.Observe(2, 4)
	if s := m.String(); s == "" {
		t.Error("String() empty")
	}
}

// TestLinearModelObserveZeroAllocs gates the fixed ring: once the window
// exists, observing (and fitting) allocates nothing however long the
// stream. The sliding-slice window this replaced reallocated every
// `window` observations.
func TestLinearModelObserveZeroAllocs(t *testing.T) {
	m := NewLinearModel(10)
	m.Observe(1, 1) // the ring is allocated by the first observation
	x := 2.0
	if avg := testing.AllocsPerRun(1000, func() {
		m.Observe(x, 2*x)
		m.Predict(x + 1)
		x++
	}); avg != 0 {
		t.Errorf("Observe+Predict allocates %.2f objects per call, want 0", avg)
	}
}

// TestLinearModelRingMatchesSlidingWindow holds the ring to the exact
// floating-point results of a window kept as a slice in arrival order:
// the engine's timely cuts compare predictions against a deadline, so a
// fit that differed in the last bit could move a cut.
func TestLinearModelRingMatchesSlidingWindow(t *testing.T) {
	const window = 7
	m := NewLinearModel(window)
	var xs, ys []float64
	for i := 0; i < 100; i++ {
		x, y := float64(i%13)+0.1*float64(i), 1e3/float64(i+1)+float64(i*i%17)
		m.Observe(x, y)
		xs, ys = append(xs, x), append(ys, y)
		if len(xs) > window {
			xs, ys = xs[1:], ys[1:]
		}
		// The reference keeps its window as a plain slice in arrival
		// order: head 0, no wrap-around.
		ref := LinearModel{window: len(xs), xs: xs, ys: ys, n: len(xs)}
		s, c := m.Fit()
		rs, rc := ref.Fit()
		if s != rs || c != rc || m.Len() != len(xs) {
			t.Fatalf("after %d observations: ring fit (%v, %v) n=%d, sliding window (%v, %v) n=%d", i+1, s, c, m.Len(), rs, rc, len(xs))
		}
	}
}
