package charlib

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/moments"
	"repro/internal/tech"
)

// netlistBranch is the branch model built the general way: the two-arm RC
// tree as a circuit.Netlist (a 100 µm π-segment ladder per arm, each load at
// its arm's end) timed by moments.Analyze.  analyticBranch must reproduce
// it bit for bit.
func netlistBranch(t testing.TB, l *Library, drive tech.Buffer, inputSlew, lLeft, lRight, capLeft, capRight float64) BranchTiming {
	t.Helper()
	net := circuit.New()
	root := net.AddNode("root")
	left := net.AddWire(l.tech, root, lLeft, 100)
	right := net.AddWire(l.tech, root, lRight, 100)
	net.AddCap(left, capLeft)
	net.AddCap(right, capRight)
	a, err := moments.Analyze(net, root, drive.DriveRes)
	if err != nil {
		t.Fatal(err)
	}
	edge := 1.2 * drive.InternalTau
	rss := func(a, b float64) float64 { return math.Sqrt(a*a + b*b) }
	return sanitizeBranch(BranchTiming{
		BufferDelay: drive.IntrinsicDelay + 0.9*drive.InternalTau + 0.18*inputSlew + a.DelayD2M(root),
		LeftDelay:   math.Max(a.DelayD2M(left)-a.DelayD2M(root), 0),
		RightDelay:  math.Max(a.DelayD2M(right)-a.DelayD2M(root), 0),
		LeftSlew:    rss(a.SlewStep(left), edge),
		RightSlew:   rss(a.SlewStep(right), edge),
	})
}

// sameFloat is == that also takes NaN as equal to NaN, for inputs that
// carry one into both models.
func sameFloat(a, b float64) bool { return a == b || (a != a && b != b) }

// checkBranch compares all five fields of the closed form against the
// netlist model for one input.
func checkBranch(t testing.TB, l *Library, drive tech.Buffer, inputSlew, lLeft, lRight, capLeft, capRight float64) {
	t.Helper()
	got := l.analyticBranch(drive, inputSlew, lLeft, lRight, capLeft, capRight)
	want := netlistBranch(t, l, drive, inputSlew, lLeft, lRight, capLeft, capRight)
	if !sameFloat(got.BufferDelay, want.BufferDelay) || !sameFloat(got.LeftDelay, want.LeftDelay) ||
		!sameFloat(got.RightDelay, want.RightDelay) || !sameFloat(got.LeftSlew, want.LeftSlew) ||
		!sameFloat(got.RightSlew, want.RightSlew) {
		t.Fatalf("Branch(%s, slew %v, L %v/%v, C %v/%v):\n closed form %+v\n netlist     %+v",
			drive.Name, inputSlew, lLeft, lRight, capLeft, capRight, got, want)
	}
}

// TestAnalyticBranchMatchesNetlist holds the closed-form branch model to the
// netlist it replaces: fixed edge rows (arms of length 0, negative, 1 µm,
// exact multiples of 100 µm, at and past the 64-segment stack bound; zero
// loads; every buffer), then 100,000 seeded random inputs.
func TestAnalyticBranchMatchesNetlist(t *testing.T) {
	tt := tech.Default()
	lib := NewAnalytic(tt)
	lengths := []float64{0, -5, 1, 37.5, 100, 200, 1000, 6300, 6399.99, 6400, 6500, 9876.5, 20000}
	loads := []float64{0, 24, 61.3}
	for _, drive := range tt.Buffers {
		for _, ll := range lengths {
			for _, lr := range lengths {
				for _, cl := range loads {
					for _, cr := range loads {
						checkBranch(t, lib, drive, 80, ll, lr, cl, cr)
					}
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(1))
	length := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return float64(rng.Intn(80)) * 100 // exact multiples, 0 included
		case 1:
			return -rng.Float64() * 500
		case 2:
			return rng.Float64() * 2
		case 3:
			return 6000 + rng.Float64()*4000 // around and past the stack bound
		default:
			return rng.Float64() * 3000
		}
	}
	load := func() float64 {
		if rng.Intn(8) == 0 {
			return 0
		}
		return rng.Float64() * 120
	}
	for i := 0; i < 100000; i++ {
		drive := tt.Buffers[rng.Intn(len(tt.Buffers))]
		checkBranch(t, lib, drive, rng.Float64()*400, length(), length(), load(), load())
	}
}

// FuzzAnalyticBranch is the same property over arbitrary inputs.  Finite
// arm lengths beyond 20,000 µm are skipped: they only make the oracle's
// netlist large.
func FuzzAnalyticBranch(f *testing.F) {
	tt := tech.Default()
	lib := NewAnalytic(tt)
	f.Fuzz(func(t *testing.T, drive uint8, inputSlew, lLeft, lRight, capLeft, capRight float64) {
		for _, l := range []float64{lLeft, lRight} {
			if math.Abs(l) > 20000 && !math.IsInf(l, 0) {
				t.Skip()
			}
		}
		checkBranch(t, lib, tt.Buffers[int(drive)%len(tt.Buffers)], inputSlew, lLeft, lRight, capLeft, capRight)
	})
}
