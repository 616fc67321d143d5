// Package waveform provides sampled voltage waveforms and the measurements
// the paper relies on: 50% propagation delay and 10%-90% transition time
// (slew).  It also generates the two stimulus shapes compared in Section 3.1,
// an ideal ramp and a "curve" shaped like a buffer output, which have equal
// 10%-90% slew but produce different downstream responses.
package waveform

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Waveform is a monotonically-sampled voltage waveform.  Times are in
// picoseconds, values in volts.  Samples must be sorted by time.
type Waveform struct {
	Times  []float64
	Values []float64
}

// New returns a waveform from parallel time/value slices.  It panics if the
// slices have different lengths; callers construct waveforms
// programmatically, so a length mismatch is a programming error.
func New(times, values []float64) *Waveform {
	if len(times) != len(values) {
		panic(fmt.Sprintf("waveform: %d times but %d values", len(times), len(values)))
	}
	return &Waveform{Times: times, Values: values}
}

// At returns the linearly interpolated value at time t.  Times outside the
// sampled range return the first or last sample value.
func (w *Waveform) At(t float64) float64 {
	n := len(w.Times)
	if n == 0 {
		return 0
	}
	if t <= w.Times[0] {
		return w.Values[0]
	}
	if t >= w.Times[n-1] {
		return w.Values[n-1]
	}
	i := sort.SearchFloat64s(w.Times, t)
	// w.Times[i-1] < t <= w.Times[i]
	t0, t1 := w.Times[i-1], w.Times[i]
	v0, v1 := w.Values[i-1], w.Values[i]
	if t1 == t0 {
		return v1
	}
	return v0 + (v1-v0)*(t-t0)/(t1-t0)
}

// Final returns the last sample value, or 0 for an empty waveform.
func (w *Waveform) Final() float64 {
	if len(w.Values) == 0 {
		return 0
	}
	return w.Values[len(w.Values)-1]
}

// CrossingTime returns the first time the waveform crosses the given
// threshold while rising.  It returns an error if the waveform never reaches
// the threshold.
func (w *Waveform) CrossingTime(threshold float64) (float64, error) {
	for i := 1; i < len(w.Times); i++ {
		v0, v1 := w.Values[i-1], w.Values[i]
		if v0 < threshold && v1 >= threshold {
			t0, t1 := w.Times[i-1], w.Times[i]
			if v1 == v0 {
				return t1, nil
			}
			return t0 + (t1-t0)*(threshold-v0)/(v1-v0), nil
		}
	}
	if len(w.Values) > 0 && w.Values[0] >= threshold {
		return w.Times[0], nil
	}
	return 0, fmt.Errorf("waveform: never crosses %.4f (final value %.4f)", threshold, w.Final())
}

// Slew returns the transition time between the low and high voltage
// thresholds (e.g. 10% and 90% of Vdd) of a rising waveform, in picoseconds.
func (w *Waveform) Slew(lowV, highV float64) (float64, error) {
	if lowV >= highV {
		return 0, errors.New("waveform: slew thresholds out of order")
	}
	tl, err := w.CrossingTime(lowV)
	if err != nil {
		return 0, fmt.Errorf("waveform: low threshold: %w", err)
	}
	th, err := w.CrossingTime(highV)
	if err != nil {
		return 0, fmt.Errorf("waveform: high threshold: %w", err)
	}
	if th < tl {
		return 0, fmt.Errorf("waveform: non-monotone crossing order (%.3f before %.3f)", th, tl)
	}
	return th - tl, nil
}

// Delay returns the 50%-to-50% propagation delay from the reference waveform
// to w, both rising, using the given mid-rail voltage.
func Delay(reference, w *Waveform, midV float64) (float64, error) {
	t0, err := reference.CrossingTime(midV)
	if err != nil {
		return 0, fmt.Errorf("waveform: reference: %w", err)
	}
	t1, err := w.CrossingTime(midV)
	if err != nil {
		return 0, err
	}
	return t1 - t0, nil
}

// Ramp returns an ideal saturated ramp rising from 0 to vdd.  The ramp starts
// at startTime and its 10%-90% transition time equals slew (the underlying
// 0-100% ramp time is slew/0.8).  Samples are generated on a uniform grid of
// step ps covering [0, horizon].
func Ramp(vdd, startTime, slew, step, horizon float64) *Waveform {
	fullRise := slew / 0.8
	return sample(step, horizon, func(t float64) float64 {
		switch {
		case t <= startTime:
			return 0
		case t >= startTime+fullRise:
			return vdd
		default:
			return vdd * (t - startTime) / fullRise
		}
	})
}

// Curve returns a buffer-output-shaped rising waveform: a saturating
// exponential-like S-curve with the same 10%-90% transition time as the
// corresponding Ramp.  The paper's Figure 3.2 experiment drives identical
// circuits with a ramp and a curve of equal slew and observes a shifted
// response; this generator reproduces the "curve" stimulus.
func Curve(vdd, startTime, slew, step, horizon float64) *Waveform {
	// v(t) = vdd * (1 - exp(-x)*(1+x)) with x = (t-start)/tau is the unit-step
	// response of a critically-damped second-order system, which closely
	// matches a CMOS buffer output into a lumped load.  Its 10%-90% transition
	// occupies ~3.358*tau, so tau is chosen to match the requested slew.
	const riseFactor = 3.3577
	tau := slew / riseFactor
	return sample(step, horizon, func(t float64) float64 {
		if t <= startTime {
			return 0
		}
		x := (t - startTime) / tau
		return vdd * (1 - math.Exp(-x)*(1+x))
	})
}

// Step returns an ideal step from 0 to vdd at startTime.
func Step(vdd, startTime, step, horizon float64) *Waveform {
	return sample(step, horizon, func(t float64) float64 {
		if t < startTime {
			return 0
		}
		return vdd
	})
}

func sample(step, horizon float64, f func(float64) float64) *Waveform {
	if step <= 0 {
		panic("waveform: non-positive sampling step")
	}
	n := int(math.Ceil(horizon/step)) + 1
	times := make([]float64, n)
	values := make([]float64, n)
	for i := 0; i < n; i++ {
		t := float64(i) * step
		times[i] = t
		values[i] = f(t)
	}
	return New(times, values)
}
