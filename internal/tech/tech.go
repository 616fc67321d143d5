// Package tech defines the technology abstraction used throughout the
// reproduction: interconnect unit parasitics, the buffer library and the slew
// constraint regime described in Chapter 5 of the paper (45 nm PTM-like
// devices, unit wire resistance and capacitance scaled 10x to mimic a large
// die with stringent slew constraints).
//
// Unit conventions, used consistently by every package in this module:
//
//	distance     micrometres (um)
//	resistance   ohms
//	capacitance  femtofarads (fF)
//	time         picoseconds (ps)
//	voltage      volts
//
// With these units, an RC product in ohm*fF equals 1e-3 ps, so the constant
// PsPerOhmFF converts parasitic products into picoseconds.
package tech

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// PsPerOhmFF converts an RC product expressed in ohm*femtofarad to
// picoseconds (1 ohm * 1 fF = 1e-15 s = 1e-3 ps).
const PsPerOhmFF = 1e-3

// Ln9 is ln(9) rounded to the nearest float64, the factor between an RC time
// constant and the 10-90% transition of a single-pole response.  It equals
// math.Log(9) on amd64, where that has an assembly path, and holds the same
// bits on every architecture; use it in a product whose other operand is not
// a constant, so that the compiler never folds it at higher precision.
const Ln9 float64 = 2.1972245773362196

// Buffer describes one buffer (two cascaded inverters) in the library.
//
// The electrical view used by the SPICE substitute (internal/spice) is a
// behavioural two-stage amplifier: the first inverter amplifies the input
// waveform with gain InputGain around the switching threshold, the result is
// filtered by an internal pole with time constant InternalTau (the first
// stage driving the second stage's gate), the second inverter amplifies with
// gain OutputGain, and the final rail-to-rail waveform drives the output net
// through DriveRes.  This model reproduces the effects the paper's algorithm
// depends on: the output is a curve rather than a ramp, the propagation delay
// and output transition depend on the input slew and on the waveform shape
// (not only its 10-90% number), and the downstream load interacts with
// DriveRes.  The characterized polynomial library (internal/charlib) is
// fitted on top of simulations of this model.
type Buffer struct {
	// Name identifies the buffer, e.g. "BUF_X10".
	Name string
	// Size is the drive strength multiple (e.g. 10 for a 10X buffer).
	Size float64
	// InputCap is the input pin capacitance in fF.
	InputCap float64
	// DriveRes is the equivalent output drive resistance in ohms.
	DriveRes float64
	// IntrinsicDelay is the fixed part of the input-to-output delay in ps
	// (the remainder emerges from InternalTau and the load).
	IntrinsicDelay float64
	// InternalTau is the characteristic charging time of the buffer's
	// internal inverter stages in ps: the time a fully-on transistor needs to
	// swing an internal node across the full rail.  Smaller buffers have
	// larger values.
	InternalTau float64
}

// Validate reports whether the buffer parameters are physically meaningful.
func (b Buffer) Validate() error {
	switch {
	case b.Name == "":
		return errors.New("tech: buffer has empty name")
	case b.Size <= 0:
		return fmt.Errorf("tech: buffer %s has non-positive size %v", b.Name, b.Size)
	case b.InputCap <= 0:
		return fmt.Errorf("tech: buffer %s has non-positive input capacitance %v", b.Name, b.InputCap)
	case b.DriveRes <= 0:
		return fmt.Errorf("tech: buffer %s has non-positive drive resistance %v", b.Name, b.DriveRes)
	case b.IntrinsicDelay < 0:
		return fmt.Errorf("tech: buffer %s has negative intrinsic delay %v", b.Name, b.IntrinsicDelay)
	case b.InternalTau <= 0:
		return fmt.Errorf("tech: buffer %s has non-positive internal time constant %v", b.Name, b.InternalTau)
	}
	return nil
}

// Technology bundles the interconnect parasitics, the buffer library and the
// clock source model for one synthesis run.
type Technology struct {
	// Name labels the technology corner, e.g. "ptm45-10x".
	Name string
	// UnitRes is the wire resistance per micrometre in ohms.
	UnitRes float64
	// UnitCap is the wire capacitance per micrometre in fF.
	UnitCap float64
	// Vdd is the supply voltage in volts.
	Vdd float64
	// SwitchingThreshold is the buffer input switching point as a fraction of
	// Vdd (typically 0.5).
	SwitchingThreshold float64
	// SlewLow and SlewHigh are the measurement thresholds for transition
	// times as fractions of Vdd (typically 0.1 and 0.9).
	SlewLow, SlewHigh float64
	// DeviceThreshold is the transistor threshold voltage as a fraction of
	// Vdd; a buffer stage starts conducting once its input overdrive exceeds
	// it.  Typical value 0.3.
	DeviceThreshold float64
	// DriveExponent is the velocity-saturation exponent of the transistor
	// current law (1 = fully velocity saturated, 2 = long channel).  Typical
	// value 1.3 for 45 nm devices.
	DriveExponent float64
	// Buffers is the buffer library, ordered by ascending size.
	Buffers []Buffer
	// SinkCapDefault is the capacitance assumed for a clock sink whose
	// benchmark does not specify one, in fF.
	SinkCapDefault float64
	// SourceDriveRes is the drive resistance of the clock source in ohms.
	SourceDriveRes float64
	// SourceSlew is the transition time of the waveform presented at the
	// clock source input, in ps.
	SourceSlew float64
}

// Default returns the 45 nm PTM-like technology used by the paper's
// experiments: a three-buffer library and unit parasitics scaled 10x relative
// to the GSRC bookshelf values so that slew degrades quickly with wire length
// and buffer insertion along routing paths becomes mandatory (Section 5.1).
func Default() *Technology {
	return &Technology{
		Name:               "ptm45-10x",
		UnitRes:            0.1, // ohm/um (10x-scaled)
		UnitCap:            0.2, // fF/um  (10x-scaled)
		Vdd:                1.0,
		SwitchingThreshold: 0.5,
		SlewLow:            0.1,
		SlewHigh:           0.9,
		DeviceThreshold:    0.3,
		DriveExponent:      1.3,
		SinkCapDefault:     20,
		SourceDriveRes:     25,
		SourceSlew:         50,
		Buffers: []Buffer{
			{
				Name: "BUF_X10", Size: 10,
				InputCap: 12, DriveRes: 190,
				IntrinsicDelay: 10, InternalTau: 14,
			},
			{
				Name: "BUF_X20", Size: 20,
				InputCap: 24, DriveRes: 95,
				IntrinsicDelay: 8, InternalTau: 12,
			},
			{
				Name: "BUF_X30", Size: 30,
				InputCap: 36, DriveRes: 64,
				IntrinsicDelay: 7, InternalTau: 10,
			},
		},
	}
}

// Validate checks the technology for internal consistency.
func (t *Technology) Validate() error {
	switch {
	case t == nil:
		return errors.New("tech: nil technology")
	case t.UnitRes <= 0 || t.UnitCap <= 0:
		return fmt.Errorf("tech: non-positive unit parasitics r=%v c=%v", t.UnitRes, t.UnitCap)
	case t.Vdd <= 0:
		return fmt.Errorf("tech: non-positive Vdd %v", t.Vdd)
	case t.SwitchingThreshold <= 0 || t.SwitchingThreshold >= 1:
		return fmt.Errorf("tech: switching threshold %v outside (0,1)", t.SwitchingThreshold)
	case t.SlewLow <= 0 || t.SlewHigh >= 1 || t.SlewLow >= t.SlewHigh:
		return fmt.Errorf("tech: invalid slew thresholds [%v, %v]", t.SlewLow, t.SlewHigh)
	case t.DeviceThreshold <= 0 || t.DeviceThreshold >= 0.5:
		return fmt.Errorf("tech: device threshold %v outside (0, 0.5)", t.DeviceThreshold)
	case t.DriveExponent < 1 || t.DriveExponent > 2:
		return fmt.Errorf("tech: drive exponent %v outside [1, 2]", t.DriveExponent)
	case len(t.Buffers) == 0:
		return errors.New("tech: empty buffer library")
	case t.SinkCapDefault <= 0:
		return fmt.Errorf("tech: non-positive default sink capacitance %v", t.SinkCapDefault)
	case t.SourceDriveRes <= 0:
		return fmt.Errorf("tech: non-positive source drive resistance %v", t.SourceDriveRes)
	case t.SourceSlew <= 0:
		return fmt.Errorf("tech: non-positive source slew %v", t.SourceSlew)
	}
	names := make(map[string]bool, len(t.Buffers))
	for _, b := range t.Buffers {
		if err := b.Validate(); err != nil {
			return err
		}
		if names[b.Name] {
			return fmt.Errorf("tech: duplicate buffer name %q", b.Name)
		}
		names[b.Name] = true
	}
	if !sort.SliceIsSorted(t.Buffers, func(i, j int) bool { return t.Buffers[i].Size < t.Buffers[j].Size }) {
		return errors.New("tech: buffer library must be sorted by ascending size")
	}
	return nil
}

// WireRes returns the resistance of a wire of the given length in ohms.
func (t *Technology) WireRes(length float64) float64 { return t.UnitRes * length }

// WireCap returns the capacitance of a wire of the given length in fF.
func (t *Technology) WireCap(length float64) float64 { return t.UnitCap * length }

// BufferByName returns the library buffer with the given name.
func (t *Technology) BufferByName(name string) (Buffer, bool) {
	for _, b := range t.Buffers {
		if b.Name == name {
			return b, true
		}
	}
	return Buffer{}, false
}

// BufferIndex returns the index of the named buffer in the library, or -1.
func (t *Technology) BufferIndex(name string) int {
	for i, b := range t.Buffers {
		if b.Name == name {
			return i
		}
	}
	return -1
}

// SmallestBuffer returns the smallest buffer in the library.
func (t *Technology) SmallestBuffer() Buffer { return t.Buffers[0] }

// LargestBuffer returns the largest buffer in the library.
func (t *Technology) LargestBuffer() Buffer { return t.Buffers[len(t.Buffers)-1] }

// ClosestBufferByCap returns the library buffer whose input capacitance is
// closest to cap.  The paper approximates a sink load by "a buffer of similar
// load capacitance" when indexing the characterized library (Section 3.2.1).
func (t *Technology) ClosestBufferByCap(cap float64) Buffer {
	best := t.Buffers[0]
	bestDiff := math.Abs(best.InputCap - cap)
	for _, b := range t.Buffers[1:] {
		if d := math.Abs(b.InputCap - cap); d < bestDiff {
			best, bestDiff = b, d
		}
	}
	return best
}

// CriticalWireLength returns a first-order estimate of the longest wire that
// a buffer of the given drive resistance can drive before the 10-90% output
// slew exceeds slewLimit (ps), assuming an open-ended wire.  It is used to
// size routing grids and wire-snaking steps before the characterized library
// gives exact numbers.  The estimate comes from the single-pole
// approximation slew ~= ln(9) * (Rd*C + R*C/2).
func (t *Technology) CriticalWireLength(driveRes, loadCap, slewLimit float64) float64 {
	// Solve ln9*( (Rd + r*l/2) * (c*l + Cl) ) * PsPerOhmFF = slewLimit for l.
	ln9 := Ln9
	a := t.UnitRes * t.UnitCap / 2
	b := driveRes*t.UnitCap + t.UnitRes*loadCap/2
	c := driveRes*loadCap - slewLimit/(ln9*PsPerOhmFF)
	disc := b*b - 4*a*c
	if disc <= 0 {
		return 0
	}
	l := (-b + math.Sqrt(disc)) / (2 * a)
	if l < 0 {
		return 0
	}
	return l
}
