package tech

import (
	"math"
	"runtime"
	"testing"
)

func TestDefaultValidates(t *testing.T) {
	tt := Default()
	if err := tt.Validate(); err != nil {
		t.Fatalf("Default technology invalid: %v", err)
	}
	if len(tt.Buffers) != 3 {
		t.Fatalf("expected 3 buffers in the default library, got %d", len(tt.Buffers))
	}
	// The paper's library spans 10X..30X with monotone electrical parameters.
	for i := 1; i < len(tt.Buffers); i++ {
		prev, cur := tt.Buffers[i-1], tt.Buffers[i]
		if cur.Size <= prev.Size {
			t.Errorf("buffer sizes not increasing: %v then %v", prev.Size, cur.Size)
		}
		if cur.DriveRes >= prev.DriveRes {
			t.Errorf("drive resistance should decrease with size: %v then %v", prev.DriveRes, cur.DriveRes)
		}
		if cur.InputCap <= prev.InputCap {
			t.Errorf("input cap should increase with size: %v then %v", prev.InputCap, cur.InputCap)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Technology)
	}{
		{"zero unit res", func(t *Technology) { t.UnitRes = 0 }},
		{"zero unit cap", func(t *Technology) { t.UnitCap = 0 }},
		{"bad vdd", func(t *Technology) { t.Vdd = -1 }},
		{"bad threshold", func(t *Technology) { t.SwitchingThreshold = 1.5 }},
		{"bad slew thresholds", func(t *Technology) { t.SlewLow, t.SlewHigh = 0.9, 0.1 }},
		{"empty library", func(t *Technology) { t.Buffers = nil }},
		{"unsorted library", func(t *Technology) { t.Buffers[0], t.Buffers[2] = t.Buffers[2], t.Buffers[0] }},
		{"duplicate buffer", func(t *Technology) { t.Buffers[1].Name = t.Buffers[0].Name }},
		{"bad buffer size", func(t *Technology) { t.Buffers[0].Size = 0 }},
		{"bad drive res", func(t *Technology) { t.Buffers[0].DriveRes = -3 }},
		{"bad sink cap", func(t *Technology) { t.SinkCapDefault = 0 }},
		{"bad source res", func(t *Technology) { t.SourceDriveRes = 0 }},
		{"bad source slew", func(t *Technology) { t.SourceSlew = 0 }},
	}
	for _, tc := range cases {
		tt := Default()
		tc.mutate(tt)
		if err := tt.Validate(); err == nil {
			t.Errorf("%s: expected validation error, got nil", tc.name)
		}
	}
}

func TestWireParasitics(t *testing.T) {
	tt := Default()
	if got := tt.WireRes(1000); math.Abs(got-1000*tt.UnitRes) > 1e-12 {
		t.Errorf("WireRes = %v", got)
	}
	if got := tt.WireCap(1000); math.Abs(got-1000*tt.UnitCap) > 1e-12 {
		t.Errorf("WireCap = %v", got)
	}
}

func TestBufferLookups(t *testing.T) {
	tt := Default()
	b, ok := tt.BufferByName("BUF_X20")
	if !ok || b.Size != 20 {
		t.Fatalf("BufferByName failed: %+v %v", b, ok)
	}
	if _, ok := tt.BufferByName("nope"); ok {
		t.Error("expected lookup miss")
	}
	if tt.LargestBuffer().Size != 30 {
		t.Error("largest wrong")
	}
	if got := tt.ClosestBufferByCap(25); got.Name != "BUF_X20" {
		t.Errorf("ClosestBufferByCap(25) = %s", got.Name)
	}
	if got := tt.ClosestBufferByCap(1000); got.Name != "BUF_X30" {
		t.Errorf("ClosestBufferByCap(1000) = %s", got.Name)
	}
}

// TestLn9MatchesMathLog pins Ln9 to the bits math.Log(9) gives on amd64,
// so replacing the call with the constant leaves every result unchanged.
// Other architectures may round math.Log differently; Ln9 is the portable
// value there.
func TestLn9MatchesMathLog(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("math.Log(9) is pinned on amd64 only, not %s", runtime.GOARCH)
	}
	if got, want := math.Float64bits(Ln9), math.Float64bits(math.Log(9)); got != want {
		t.Fatalf("Ln9 bits %#x, math.Log(9) bits %#x", got, want)
	}
}
