package pipeline

// MemLayout sizes stage memories in bits. PtrBits is the width of one child
// pointer (the paper reads 18-bit-wide data, Section V-B); NHIBits is the
// width of one network's next-hop entry.
//
// IndirectNHI selects the alternative leaf layout of the DESIGN.md ablation:
// instead of storing the K-wide NHI vector inline at every leaf (the
// paper's Section V-D layout), each leaf stores a PtrBits-wide index into a
// shared table of distinct vectors. When many leaves share the same vector
// (high-overlap merges), indirection trades one extra memory for much
// smaller leaf entries.
type MemLayout struct {
	PtrBits     int
	NHIBits     int
	IndirectNHI bool
}

// DefaultLayout matches the paper's 18-bit read width with byte-wide NHI.
func DefaultLayout() MemLayout { return MemLayout{PtrBits: ptrBits, NHIBits: nhiBits} }

// entryBits returns the storage cost of one entry of a K-network image:
// internal nodes store two child pointers, leaves store the K-wide NHI
// vector (Section V-D) or an index into the shared vector table.
func (l MemLayout) entryBits(leaf bool, k int) int64 {
	switch {
	case !leaf:
		return 2 * int64(l.PtrBits)
	case l.IndirectNHI:
		return int64(l.PtrBits)
	}
	return int64(k) * int64(l.NHIBits)
}

// NHITableBits returns the size of the shared distinct-vector table used by
// the indirect layout (0 for the inline layout).
func (l MemLayout) NHITableBits(img *Image) int64 {
	if !l.IndirectNHI {
		return 0
	}
	distinct := make(map[string]bool)
	var key []byte
	for i, m := range img.meta {
		if m&metaLeaf == 0 {
			continue
		}
		key = key[:0]
		c := img.child[i]
		for _, nh := range img.nhi[c[0] : c[0]+c[1]] {
			key = append(key, byte(nh), byte(nh>>8))
		}
		distinct[string(key)] = true
	}
	return int64(len(distinct)) * int64(img.K) * int64(l.NHIBits)
}

// stageBits splits stage s's memory into pointer bits (internal nodes) and
// NHI bits (leaf entries).
func (l MemLayout) stageBits(img *Image, s int) (ptr, nhi int64) {
	for _, m := range img.stages[s].meta {
		if m&metaLeaf == 0 {
			ptr += l.entryBits(false, img.K)
		} else {
			nhi += l.entryBits(true, img.K)
		}
	}
	return ptr, nhi
}

// StageBits returns the memory size of stage s in bits. With the indirect
// layout the shared vector table is charged to the last stage, where the
// hardware resolves the final NHI.
func (l MemLayout) StageBits(img *Image, s int) int64 {
	ptr, nhi := l.stageBits(img, s)
	if s == len(img.stages)-1 {
		nhi += l.NHITableBits(img)
	}
	return ptr + nhi
}

// AllStageBits returns per-stage memory sizes for the whole image, the
// M_{i,j} vector the power models consume.
func (l MemLayout) AllStageBits(img *Image) []int64 {
	out := make([]int64, len(img.stages))
	for s := range out {
		out[s] = l.StageBits(img, s)
	}
	return out
}

// PointerAndNHIBits splits the image's memory into pointer bits (internal
// nodes) and NHI bits (leaf entries plus any shared vector table), the two
// panels of Fig. 4.
func (l MemLayout) PointerAndNHIBits(img *Image) (ptr, nhi int64) {
	for s := range img.stages {
		p, n := l.stageBits(img, s)
		ptr, nhi = ptr+p, nhi+n
	}
	return ptr, nhi + l.NHITableBits(img)
}
