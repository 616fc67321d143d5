package mergeroute

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/clocktree"
	"repro/internal/tech"
)

// This file is the binary codec behind the subtree cache (pkg/cts
// WithSubtreeCache): a merged sub-tree is serialized to a self-contained
// byte value at merge time and decoded back on a cache hit.  The encoding is
// fully self-describing — buffer parameters are embedded by value, never
// resolved by name against a library — so a decoded sub-tree is
// byte-for-byte the tree the merge produced, independent of the process
// that wrote it.
//
// Layout (all integers are uvarints, all floats are little-endian
// float64 bits):
//
//	magic "stc2"
//	flips                      — H-structure flips accumulated in the subtree's
//	                             top merge (0 or 1 for the default router)
//	nodeCount
//	nodeCount × node records, preorder from the sub-tree root:
//	    nameLen, name, kind, posX, posY, sinkCap, wireLen,
//	    bufferFlag (0 or 1) [nameLen, name, size, inputCap, driveRes,
//	                         intrinsicDelay, internalTau],
//	    childCount, childCount × child preorder index
//	subtree skeleton, recursively:
//	    rootIndex, minDelay, maxDelay, loadCap, childMask (bit i: child i),
//	    [child 0 skeleton], [child 1 skeleton]
//	checksum                   — first 8 bytes of sha256 over everything above
//
// The magic and pkg/cts's subtree key stamp change together: a cache never
// replaces a resident key, so a new format under unchanged keys would miss
// forever wherever an old value lives.
//
// The trailing checksum is what makes a cache value trustworthy: structural
// validation alone cannot tell a flipped coordinate bit from a real one, and
// a silently wrong sub-tree would break the delta path's bit-identity
// contract.  Any corruption therefore fails DecodeSubtree, which the flow
// treats as a miss.  The structural checks hold a value that carries a good
// checksum, such as one a cluster peer sends, to exactly what the encoder
// writes.
//
// The root node's WireLen is normalized to zero on encode: WireLen is the
// wire from the node's parent, which a detached (cacheable) sub-tree does
// not have, so a root encodes the same whether or not it has since been
// attached.
var codecMagic = [4]byte{'s', 't', 'c', '2'}

// encodeBufs recycles EncodeSubtree's working buffers.  A value is built in
// one and copied out at its exact length: caches keep every value they hold
// and count its len against their byte budget, so spare capacity would be
// memory no budget sees.
var encodeBufs = sync.Pool{New: func() interface{} { return new([]byte) }}

// EncodeSubtree serializes the sub-tree with its flip count into the cache
// value format above.  The sub-tree is not modified, and the returned slice
// has no spare capacity (cap == len).
func EncodeSubtree(s *Subtree, flips int) []byte {
	// Preorder node flattening with an explicit stack: routed paths chain
	// nodes thousands deep on large dies, too deep to recurse comfortably.
	// The index map is built after the walk, sized exactly, so it does not
	// rehash while serializing — EncodeSubtree sits on the incremental
	// path's write-through hot loop.
	var order []*clocktree.Node
	stack := []*clocktree.Node{s.Root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, n)
		for i := len(n.Children) - 1; i >= 0; i-- {
			stack = append(stack, n.Children[i])
		}
	}
	index := make(map[*clocktree.Node]int, len(order))
	for i, n := range order {
		index[n] = i
	}

	bp := encodeBufs.Get().(*[]byte)
	defer encodeBufs.Put(bp)
	buf := append((*bp)[:0], codecMagic[:]...)
	buf = binary.AppendUvarint(buf, uint64(flips))
	buf = binary.AppendUvarint(buf, uint64(len(order)))
	for i, n := range order {
		buf = appendString(buf, n.Name)
		buf = binary.AppendUvarint(buf, uint64(n.Kind))
		buf = appendFloat(buf, n.Pos.X)
		buf = appendFloat(buf, n.Pos.Y)
		buf = appendFloat(buf, n.SinkCap)
		wl := n.WireLen
		if i == 0 {
			wl = 0 // detached-root normalization, see the layout comment
		}
		buf = appendFloat(buf, wl)
		if n.Buffer != nil {
			buf = append(buf, 1)
			buf = appendString(buf, n.Buffer.Name)
			buf = appendFloat(buf, n.Buffer.Size)
			buf = appendFloat(buf, n.Buffer.InputCap)
			buf = appendFloat(buf, n.Buffer.DriveRes)
			buf = appendFloat(buf, n.Buffer.IntrinsicDelay)
			buf = appendFloat(buf, n.Buffer.InternalTau)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.AppendUvarint(buf, uint64(len(n.Children)))
		for _, c := range n.Children {
			buf = binary.AppendUvarint(buf, uint64(index[c]))
		}
	}
	buf = appendSkeleton(buf, s, index)
	*bp = buf
	sum := sha256.Sum256(buf)
	out := make([]byte, len(buf), len(buf)+codecChecksumLen)
	copy(out, buf)
	return append(out, sum[:codecChecksumLen]...)
}

// codecChecksumLen is the truncated-sha256 trailer length; 64 bits is far
// beyond what accidental corruption survives.
const codecChecksumLen = 8

func appendSkeleton(buf []byte, s *Subtree, index map[*clocktree.Node]int) []byte {
	buf = binary.AppendUvarint(buf, uint64(index[s.Root]))
	buf = appendFloat(buf, s.MinDelay)
	buf = appendFloat(buf, s.MaxDelay)
	buf = appendFloat(buf, s.LoadCap)
	var mask byte
	if s.Children[0] != nil {
		mask |= 1
	}
	if s.Children[1] != nil {
		mask |= 2
	}
	buf = append(buf, mask)
	for _, c := range s.Children {
		if c != nil {
			buf = appendSkeleton(buf, c, index)
		}
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendFloat(buf []byte, v float64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	return append(buf, b[:]...)
}

// DecodeSubtree reconstructs a sub-tree and its flip count from an encoded
// cache value.  It accepts only what EncodeSubtree writes — nodes in
// preorder with their child indices, minimal uvarints, 0/1 flags, a root
// without a parent wire, and each skeleton child over a node strictly
// inside its parent entry's sub-tree, disjoint from its sibling's — so a
// corrupt or truncated value returns an error (a cache miss for the caller)
// rather than a malformed tree.
func DecodeSubtree(data []byte) (*Subtree, int, error) {
	if len(data) < codecChecksumLen {
		return nil, 0, errors.New("mergeroute: subtree codec: truncated value")
	}
	body := data[:len(data)-codecChecksumLen]
	sum := sha256.Sum256(body)
	if !bytes.Equal(sum[:codecChecksumLen], data[len(data)-codecChecksumLen:]) {
		return nil, 0, errors.New("mergeroute: subtree codec: checksum mismatch")
	}
	d := &decoder{data: body}
	if !bytes.Equal(d.bytes(4), codecMagic[:]) {
		return nil, 0, errors.New("mergeroute: subtree codec: bad magic")
	}
	flips := int(d.uvarint())
	count := int(d.uvarint())
	// A node record is at least 40 bytes of floats alone; a generous lower
	// bound keeps a corrupt count from allocating unboundedly.
	if count <= 0 || count > len(data)/40+1 {
		return nil, 0, fmt.Errorf("mergeroute: subtree codec: implausible node count %d", count)
	}

	nodes := make([]*clocktree.Node, count)
	for i := range nodes {
		nodes[i] = &clocktree.Node{}
	}
	// pending holds the child indices the preorder walk has still to
	// reach, the next one last, so each node must be the one its position
	// promises: no node is orphaned, aliased or its own ancestor.  end[i]
	// is one past the last index of node i's sub-tree, the next index
	// pending below node i's children.
	pending := []int{0}
	end := make([]int, count)
	for i := 0; i < count && d.err == nil; i++ {
		if len(pending) == 0 || pending[len(pending)-1] != i {
			return nil, 0, fmt.Errorf("mergeroute: subtree codec: node %d is out of preorder", i)
		}
		pending = pending[:len(pending)-1]
		end[i] = count
		if len(pending) > 0 {
			end[i] = pending[len(pending)-1]
		}
		n := nodes[i]
		n.Name = d.string()
		n.Kind = clocktree.Kind(d.uvarint())
		n.Pos.X = d.float()
		n.Pos.Y = d.float()
		n.SinkCap = d.float()
		n.WireLen = d.float()
		if i == 0 && math.Float64bits(n.WireLen) != 0 {
			return nil, 0, errors.New("mergeroute: subtree codec: root has a parent wire")
		}
		switch d.byte() {
		case 0:
		case 1:
			b := &tech.Buffer{}
			b.Name = d.string()
			b.Size = d.float()
			b.InputCap = d.float()
			b.DriveRes = d.float()
			b.IntrinsicDelay = d.float()
			b.InternalTau = d.float()
			n.Buffer = b
		default:
			return nil, 0, fmt.Errorf("mergeroute: subtree codec: node %d has a bad buffer flag", i)
		}
		nc := d.uvarint()
		if d.err != nil {
			break
		}
		if nc > uint64(count-i-1) {
			return nil, 0, fmt.Errorf("mergeroute: subtree codec: node %d claims %d children", i, nc)
		}
		first := len(pending)
		for c := uint64(0); c < nc; c++ {
			ci := d.uvarint()
			if d.err != nil {
				break
			}
			if ci <= uint64(i) || ci >= uint64(count) {
				return nil, 0, fmt.Errorf("mergeroute: subtree codec: node %d child index %d out of preorder range", i, ci)
			}
			nodes[ci].Parent = n
			n.Children = append(n.Children, nodes[ci])
			pending = append(pending, int(ci))
		}
		slices.Reverse(pending[first:])
	}
	if d.err != nil {
		return nil, 0, d.err
	}
	if len(pending) != 0 {
		return nil, 0, fmt.Errorf("mergeroute: subtree codec: node %d is claimed but not in preorder", pending[len(pending)-1])
	}
	s, _, err := decodeSkeleton(d, nodes, end, 0, 1)
	if err != nil {
		return nil, 0, err
	}
	if d.off != len(body) {
		return nil, 0, fmt.Errorf("mergeroute: subtree codec: %d trailing bytes", len(body)-d.off)
	}
	return s, flips, nil
}

// decodeSkeleton reads one skeleton entry, whose root must be a node in
// [lo, hi), and returns it with its root's index.
func decodeSkeleton(d *decoder, nodes []*clocktree.Node, end []int, lo, hi int) (*Subtree, int, error) {
	ri := d.uvarint()
	if d.err != nil {
		return nil, 0, d.err
	}
	if ri < uint64(lo) || ri >= uint64(hi) {
		return nil, 0, fmt.Errorf("mergeroute: subtree codec: skeleton root index %d outside [%d, %d)", ri, lo, hi)
	}
	r := int(ri)
	s := &Subtree{Root: nodes[r], MinDelay: d.float(), MaxDelay: d.float(), LoadCap: d.float()}
	mask := d.byte()
	if d.err != nil {
		return nil, 0, d.err
	}
	if mask > 3 {
		return nil, 0, fmt.Errorf("mergeroute: subtree codec: skeleton child mask %#x", mask)
	}
	var kids [2]int
	for i := 0; i < 2; i++ {
		if mask&(1<<i) == 0 {
			continue
		}
		c, ci, err := decodeSkeleton(d, nodes, end, r+1, end[r])
		if err != nil {
			return nil, 0, err
		}
		s.Children[i], kids[i] = c, ci
	}
	if a, b := kids[0], kids[1]; mask == 3 && a < end[b] && b < end[a] {
		return nil, 0, fmt.Errorf("mergeroute: subtree codec: skeleton children %d and %d overlap", a, b)
	}
	return s, r, nil
}

// decoder is a bounds-checked cursor over an encoded value; the first
// failure latches in err and every later read returns zero values.
type decoder struct {
	data []byte
	off  int
	err  error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = errors.New("mergeroute: subtree codec: truncated value")
	}
}

func (d *decoder) bytes(n int) []byte {
	if d.err != nil || d.off+n > len(d.data) {
		d.fail()
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) byte() byte {
	b := d.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	if n > 1 && d.data[d.off+n-1] == 0 {
		// A zero last byte only pads the value; the encoder never writes one.
		d.err = errors.New("mergeroute: subtree codec: padded uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) float() float64 {
	b := d.bytes(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.data)-d.off) {
		d.fail()
		return ""
	}
	return string(d.bytes(int(n)))
}
