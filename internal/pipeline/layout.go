package pipeline

// MemLayout sizes stage memories in bits. PtrBits is the width of one child
// pointer (the paper reads 18-bit-wide data, Section V-B); NHIBits is the
// width of one network's next-hop entry. An internal node stores two
// pointers, a leaf of a K-network image the K-wide NHI vector (Section V-D),
// so an image's memory is a function of its per-level node counts
// (Image.Levels); core prices it from those.
type MemLayout struct {
	PtrBits int
	NHIBits int
}

// DefaultLayout matches the paper's 18-bit read width with byte-wide NHI.
func DefaultLayout() MemLayout { return MemLayout{PtrBits: ptrBits, NHIBits: nhiBits} }
