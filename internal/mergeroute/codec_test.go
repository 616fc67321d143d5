package mergeroute

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/charlib"
	"repro/internal/geom"
	"repro/internal/tech"
)

// mergedFixture routes one real merge so the codec test exercises routed
// paths, inserted buffers and the recursive skeleton rather than a
// hand-built toy.
func mergedFixture(t *testing.T) *Subtree {
	t.Helper()
	tt := tech.Default()
	m, err := New(tt, Config{Lib: charlib.NewAnalytic(tt)})
	if err != nil {
		t.Fatal(err)
	}
	sa := SinkSubtree("a", geom.Pt(0, 0), tt.SinkCapDefault)
	sb := SinkSubtree("b", geom.Pt(9000, 5000), tt.SinkCapDefault)
	ab, err := m.Merge(context.Background(), sa, sb)
	if err != nil {
		t.Fatal(err)
	}
	sc := SinkSubtree("c", geom.Pt(2000, 8000), tt.SinkCapDefault)
	root, err := m.Merge(context.Background(), ab, sc)
	if err != nil {
		t.Fatal(err)
	}
	root.Flipped = true
	return root
}

func TestSubtreeCodecRoundTrip(t *testing.T) {
	root := mergedFixture(t)
	enc := EncodeSubtree(root, 1)
	dec, flips, err := DecodeSubtree(enc)
	if err != nil {
		t.Fatal(err)
	}
	if flips != 1 {
		t.Errorf("flips = %d, want 1", flips)
	}
	if dec.MinDelay != root.MinDelay || dec.MaxDelay != root.MaxDelay ||
		dec.LoadCap != root.LoadCap || dec.Level != root.Level || !dec.Flipped {
		t.Errorf("skeleton mismatch: %+v vs %+v", dec, root)
	}
	if dec.Children[0] == nil || dec.Children[1] == nil {
		t.Fatal("decoded merge lost its children")
	}
	if dec.Children[0].Children[0] == nil {
		t.Fatal("decoded grandchild skeleton missing")
	}
	// Re-encoding the decoded sub-tree must reproduce the bytes exactly:
	// that identity is what lets the cache treat the value as the sub-tree.
	if re := EncodeSubtree(dec, 1); !bytes.Equal(re, enc) {
		t.Errorf("re-encode differs: %d vs %d bytes", len(re), len(enc))
	}
	if dec.Root.Parent != nil || dec.Root.WireLen != 0 {
		t.Error("decoded root is not detached")
	}
}

// TestSubtreeCodecExactSize checks that every encoded value carries no spare
// capacity: caches keep the slice and budget its len, so spare capacity
// would be memory no budget counts.  The corpus is the fixture with both
// flip counts, every sub-tree of its skeleton, a bare sink, and a decoded
// re-encode.
func TestSubtreeCodecExactSize(t *testing.T) {
	root := mergedFixture(t)
	tt := tech.Default()
	corpus := []*Subtree{root, SinkSubtree("lone", geom.Pt(5, 7), tt.SinkCapDefault)}
	for i := 0; i < len(corpus); i++ {
		for _, c := range corpus[i].Children {
			if c != nil {
				corpus = append(corpus, c)
			}
		}
	}
	dec, _, err := DecodeSubtree(EncodeSubtree(root, 1))
	if err != nil {
		t.Fatal(err)
	}
	corpus = append(corpus, dec)
	for i, s := range corpus {
		for _, flips := range []int{0, 1} {
			if v := EncodeSubtree(s, flips); cap(v) != len(v) {
				t.Errorf("corpus %d flips %d: cap %d != len %d", i, flips, cap(v), len(v))
			}
		}
	}
}

// TestSubtreeCodecNormalizesAttachedRoot checks the detached-root
// normalization: encoding a sub-tree whose root has since been attached to a
// parent (as happens when harvesting from a finished base tree) produces the
// same bytes as encoding it detached.
func TestSubtreeCodecNormalizesAttachedRoot(t *testing.T) {
	root := mergedFixture(t)
	detached := EncodeSubtree(root, 0)
	root.Root.WireLen = 1234.5
	attached := EncodeSubtree(root, 0)
	if !bytes.Equal(detached, attached) {
		t.Error("attached-root encoding differs from detached")
	}
	root.Root.WireLen = 0
}

func TestSubtreeCodecRejectsCorruption(t *testing.T) {
	enc := EncodeSubtree(mergedFixture(t), 0)
	cases := map[string][]byte{
		"empty":     nil,
		"bad magic": append([]byte("nope"), enc[4:]...),
		"truncated": enc[:len(enc)/2],
		"trailing":  append(append([]byte{}, enc...), 0xff),
	}
	// The trailing checksum must catch any flipped byte — including payload
	// bytes no structural check could tell apart from real data.  Flip every
	// 13th byte as a cheap fuzz pass.
	for i := 0; i < len(enc); i += 13 {
		mut := append([]byte{}, enc...)
		mut[i] ^= 0x5a
		if _, _, err := DecodeSubtree(mut); err == nil {
			t.Errorf("decode accepted a value with byte %d flipped", i)
		}
	}
	for name, data := range cases {
		if _, _, err := DecodeSubtree(data); err == nil {
			t.Errorf("%s: decode accepted corrupt value", name)
		}
	}
}
