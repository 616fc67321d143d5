package ctsserver

import (
	"fmt"
	"math/rand"
	"testing"
)

// ringKeys returns n deterministic synthetic keys shaped like canonical
// request keys.
func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%06d+verify", i)
	}
	return keys
}

// ringMembers returns n deterministic member URLs.
func ringMembers(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://member-%02d:8155", i)
	}
	return out
}

// TestRingDeterministicOwnership pins the property every gateway relies on:
// ownership is a pure function of the member *set* — list order, duplicates
// and empty entries must not matter.
func TestRingDeterministicOwnership(t *testing.T) {
	members := ringMembers(5)
	a := newRing(members)

	shuffled := append([]string(nil), members...)
	rng := rand.New(rand.NewSource(7))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	shuffled = append(shuffled, "", members[0], members[3]) // noise: empties and dupes
	b := newRing(shuffled)

	for _, k := range ringKeys(2000) {
		if a.owner(k) != b.owner(k) {
			t.Fatalf("owner(%q) differs across equivalent rings: %q vs %q", k, a.owner(k), b.owner(k))
		}
		ra, rb := a.replicas(k), b.replicas(k)
		if len(ra) != len(rb) {
			t.Fatalf("replica counts differ for %q: %d vs %d", k, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("replica order differs for %q at %d: %q vs %q", k, i, ra[i], rb[i])
			}
		}
	}
}

// TestRingReplicasDistinctAndComplete asserts the failover order visits
// every member exactly once, owner first.
func TestRingReplicasDistinctAndComplete(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		r := newRing(ringMembers(n))
		for _, k := range ringKeys(500) {
			reps := r.replicas(k)
			if len(reps) != n {
				t.Fatalf("n=%d: replicas(%q) has %d entries", n, k, len(reps))
			}
			if reps[0] != r.owner(k) {
				t.Fatalf("n=%d: replicas(%q)[0] = %q, owner = %q", n, k, reps[0], r.owner(k))
			}
			seen := make(map[string]bool, n)
			for _, m := range reps {
				if seen[m] {
					t.Fatalf("n=%d: replicas(%q) repeats %q", n, k, m)
				}
				seen[m] = true
			}
		}
	}
}

// TestRingUniformity asserts every member's share of 10k keys stays within
// ±25% of fair for the cluster sizes the gateway targets.
func TestRingUniformity(t *testing.T) {
	keys := ringKeys(10000)
	for _, n := range []int{3, 5, 8} {
		r := newRing(ringMembers(n))
		counts := make(map[string]int, n)
		for _, k := range keys {
			counts[r.owner(k)]++
		}
		fair := float64(len(keys)) / float64(n)
		for m, c := range counts {
			if dev := float64(c)/fair - 1; dev < -0.25 || dev > 0.25 {
				t.Errorf("n=%d: member %s owns %d keys (%.0f%% of fair share)", n, m, c, 100*float64(c)/fair)
			}
		}
	}
}

// TestRingChurnBounded is the lazy-rebalance property test: across randomized
// membership changes, removing a member moves exactly the keys it owned (and
// nothing else), and adding a member moves only the keys the newcomer claims
// — in both cases about 1/N of the space, never a wholesale reshuffle.
func TestRingChurnBounded(t *testing.T) {
	trials := 200
	keys := ringKeys(10000)
	if testing.Short() {
		trials = 20
		keys = ringKeys(2000)
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < trials; trial++ {
		n := 3 + rng.Intn(6) // 3..8 members
		members := ringMembers(n)
		before := newRing(members)

		if rng.Intn(2) == 0 {
			// Remove one member: every moved key must have been owned by it,
			// and every key it owned must move.
			victim := members[rng.Intn(n)]
			after := newRing(removeMember(members, victim))
			moved, owned := 0, 0
			for _, k := range keys {
				was := before.owner(k)
				if was == victim {
					owned++
				}
				if was != after.owner(k) {
					moved++
					if was != victim {
						t.Fatalf("trial %d: key %q moved from surviving member %q when %q left", trial, k, was, victim)
					}
					if after.owner(k) != before.replicas(k)[1] {
						t.Fatalf("trial %d: key %q moved to %q, not its next replica %q", trial, k, after.owner(k), before.replicas(k)[1])
					}
				}
			}
			if moved != owned {
				t.Fatalf("trial %d: removing %q moved %d keys but it owned %d", trial, victim, moved, owned)
			}
			assertChurnShare(t, trial, moved, len(keys), n)
		} else {
			// Add one member: every moved key must now belong to the newcomer.
			newcomer := fmt.Sprintf("http://member-new-%03d:8155", trial)
			after := newRing(append(append([]string(nil), members...), newcomer))
			moved := 0
			for _, k := range keys {
				if before.owner(k) != after.owner(k) {
					moved++
					if after.owner(k) != newcomer {
						t.Fatalf("trial %d: key %q moved to %q when %q joined", trial, k, after.owner(k), newcomer)
					}
				}
			}
			assertChurnShare(t, trial, moved, len(keys), n+1)
		}
	}
}

// assertChurnShare checks a membership change of a ring ending at (or
// starting from) n members moved roughly 1/n of the keys: at most 1.6x the
// expected share (well past the ~1/sqrt(vnodes) spread of the vnode
// placement, tight enough to catch any rehash-everything regression).
func assertChurnShare(t *testing.T, trial, moved, total, n int) {
	t.Helper()
	expected := float64(total) / float64(n)
	if f := float64(moved); f > 1.6*expected {
		t.Fatalf("trial %d: %d of %d keys moved, expected about %.0f (1/%d)", trial, moved, total, expected, n)
	}
	if moved == 0 {
		t.Fatalf("trial %d: membership change moved no keys at all", trial)
	}
}

// removeMember returns members without the victim.
func removeMember(members []string, victim string) []string {
	out := make([]string, 0, len(members)-1)
	for _, m := range members {
		if m != victim {
			out = append(out, m)
		}
	}
	return out
}

// TestRingEmptyAndSingle pins the degenerate cases the gateway construction
// guards against.
func TestRingEmptyAndSingle(t *testing.T) {
	empty := newRing(nil)
	if got := empty.owner("anything"); got != "" {
		t.Errorf("empty ring owner = %q, want \"\"", got)
	}
	if reps := empty.replicas("anything"); reps != nil {
		t.Errorf("empty ring replicas = %v, want nil", reps)
	}
	single := newRing([]string{"http://only:8155"})
	for _, k := range ringKeys(50) {
		if single.owner(k) != "http://only:8155" {
			t.Fatalf("single-member ring misrouted %q", k)
		}
	}
}
