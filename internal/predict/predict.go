// Package predict implements the self-tuning run-time model used by timely
// cuts (§3.3): an online linear regression over the most recent regions'
// (size, greedy-run-time) observations. The paper found a linear model to
// be a reasonably accurate fit and recommends conservative overestimation;
// both are provided here.
package predict

import (
	"fmt"
	"time"
)

// DefaultWindow is the number of recent observations kept; the paper uses
// "the most recent, say ten, regions".
const DefaultWindow = 10

// LinearModel is an online least-squares fit y = slope*x + intercept over a
// sliding window of observations, kept in a fixed ring: observing never
// allocates once the ring exists. The zero value is ready to use with the
// default window.
type LinearModel struct {
	window int
	// xs and ys hold the window; the oldest observation is at head and the
	// n retained ones follow it, wrapping around.
	xs, ys  []float64
	head, n int
}

// NewLinearModel creates a model with the given sliding-window size;
// values < 2 use DefaultWindow.
func NewLinearModel(window int) *LinearModel {
	if window < 2 {
		window = DefaultWindow
	}
	return &LinearModel{window: window}
}

// Observe records one (x, y) observation, evicting the oldest when the
// window is full.
func (m *LinearModel) Observe(x, y float64) {
	if m.xs == nil {
		if m.window == 0 {
			m.window = DefaultWindow
		}
		m.xs, m.ys = make([]float64, m.window), make([]float64, m.window)
	}
	// The slot after the newest observation — the oldest one's when full.
	i := (m.head + m.n) % m.window
	if m.n == m.window {
		m.head = (m.head + 1) % m.window
	} else {
		m.n++
	}
	m.xs[i], m.ys[i] = x, y
}

// Len returns the number of retained observations.
func (m *LinearModel) Len() int { return m.n }

// Fit returns the current slope and intercept. With fewer than two
// observations, or a degenerate (constant-x) window, it falls back to a
// flat model through the mean of y. The sums run oldest to newest, so the
// floating-point result depends on the window's contents alone.
func (m *LinearModel) Fit() (slope, intercept float64) {
	n := float64(m.n)
	if m.n == 0 {
		return 0, 0
	}
	var sx, sy float64
	for k := 0; k < m.n; k++ {
		i := (m.head + k) % m.window
		sx += m.xs[i]
		sy += m.ys[i]
	}
	if m.n == 1 {
		return 0, sy
	}
	mx, my := sx/n, sy/n
	var sxx, sxy float64
	for k := 0; k < m.n; k++ {
		i := (m.head + k) % m.window
		dx := m.xs[i] - mx
		sxx += dx * dx
		sxy += dx * (m.ys[i] - my)
	}
	if sxx == 0 {
		return 0, my
	}
	slope = sxy / sxx
	return slope, my - slope*mx
}

// Predict estimates y at x using the fitted model.
func (m *LinearModel) Predict(x float64) float64 {
	slope, intercept := m.Fit()
	return slope*x + intercept
}

// String implements fmt.Stringer for diagnostics.
func (m *LinearModel) String() string {
	s, i := m.Fit()
	return fmt.Sprintf("y = %.4g*x + %.4g (n=%d)", s, i, m.n)
}

// RunTimePredictor predicts how long the greedy hitting-set algorithm will
// take on a region of a given size. It is the "self-tuning controller" of
// §3.5.3: run-time measurements compensate the model online.
type RunTimePredictor struct {
	model *LinearModel
	// Margin is a constant overestimation added to predictions, to be
	// "more conservative in meeting the timeliness requirements" (§3.3).
	Margin time.Duration
}

// NewRunTimePredictor creates a predictor over the given observation
// window with the given safety margin.
func NewRunTimePredictor(window int, margin time.Duration) *RunTimePredictor {
	return &RunTimePredictor{model: NewLinearModel(window), Margin: margin}
}

// Observe records the measured greedy run time for a region of the given
// size (in tuples).
func (p *RunTimePredictor) Observe(regionSize int, elapsed time.Duration) {
	p.model.Observe(float64(regionSize), float64(elapsed))
}

// Predict estimates the greedy run time for a region of the given size,
// including the safety margin. Predictions never go negative.
func (p *RunTimePredictor) Predict(regionSize int) time.Duration {
	est := time.Duration(p.model.Predict(float64(regionSize))) + p.Margin
	if est < 0 {
		return 0
	}
	return est
}

// Observations returns how many measurements back the current model.
func (p *RunTimePredictor) Observations() int { return p.model.Len() }
