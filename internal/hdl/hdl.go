// Package hdl emits a compiled lookup pipeline as synthesizable Verilog:
// one generic stage module, a top-level that chains N stages, per-stage
// $readmemh memory images holding the exact entries the Go simulator runs,
// and a self-checking testbench whose vectors come from the simulator
// itself. The paper's engines are hand-written RTL; this backend closes the
// loop from the Go model back to the FPGA flow it models. The generated
// memory images are round-trip verified in the package tests (decode ==
// compile); the Verilog itself targets iverilog/XST-class tools and ships
// as an artifact, since no synthesizer runs here.
package hdl

import (
	"fmt"
	"sort"
	"strings"

	"vrpower/internal/ip"
	"vrpower/internal/pipeline"
)

// Design is an emitted RTL bundle: file name → contents.
type Design struct {
	Files map[string]string
	// Top is the top-level module name.
	Top string
	// WordBits is the stage-memory word width.
	WordBits int
}

// FileNames returns the bundle's files in stable order.
func (d *Design) FileNames() []string {
	names := make([]string, 0, len(d.Files))
	for n := range d.Files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Emit generates the RTL bundle for a compiled image. The image must map
// one trie level per stage (compile with stages = height+1): folded stages
// would need multi-cycle stage logic, which this single-cycle-per-stage
// backend does not model. vectors testbench probes are generated from the
// image's own lookup results.
func Emit(img *pipeline.Image, layout pipeline.MemLayout, name string, vectors []pipeline.Request) (*Design, error) {
	if name == "" {
		name = "vrlookup"
	}
	for s := 0; s < img.Stages(); s++ {
		for i := 0; i < img.StageLen(s); i++ {
			e := img.Entry(s, uint32(i))
			if img.Map.Stage(e.Level) != s {
				return nil, fmt.Errorf("hdl: stage %d holds level %d (inconsistent map)", s, e.Level)
			}
			if !e.Leaf && img.Map.Stage(e.Level+1) == s {
				return nil, fmt.Errorf("hdl: stage %d folds multiple levels; compile with stages = height+1", s)
			}
		}
	}

	ptrBits := layout.PtrBits
	nhiBits := layout.NHIBits
	payload := 2 * ptrBits
	if k := img.K * nhiBits; k > payload {
		payload = k
	}
	word := 1 + payload // leaf flag + payload

	d := &Design{Files: map[string]string{}, Top: name, WordBits: word}
	for s := 0; s < img.Stages(); s++ {
		mem, err := encodeStage(img, s, word, ptrBits, nhiBits)
		if err != nil {
			return nil, err
		}
		d.Files[fmt.Sprintf("%s_stage%02d.mem", name, s)] = mem
	}
	d.Files[name+"_stage.v"] = stageModule(name)
	d.Files[name+".v"] = topModule(img, name, word, ptrBits, nhiBits)
	d.Files[name+"_tb.v"] = testbench(img, name, vectors)
	return d, nil
}

// encodeStage renders one stage's memory as $readmemh hex words.
func encodeStage(img *pipeline.Image, s, word, ptrBits, nhiBits int) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "// stage %02d: %d entries, %d-bit words\n", s, img.StageLen(s), word)
	digits := (word + 3) / 4
	for i := 0; i < img.StageLen(s); i++ {
		v, err := EncodeEntry(img.Entry(s, uint32(i)), img.K, ptrBits, nhiBits)
		if err != nil {
			return "", fmt.Errorf("hdl: stage %d entry %d: %w", s, i, err)
		}
		fmt.Fprintf(&b, "%0*x\n", digits, v)
	}
	if img.StageLen(s) == 0 {
		// $readmemh needs at least one word; emit an inert miss leaf.
		fmt.Fprintf(&b, "%0*x\n", digits, uint64(1))
	}
	return b.String(), nil
}

// EncodeEntry packs a stage entry into a memory word:
//
//	bit 0:                 leaf flag
//	internal:  [1 .. ptr]        child0, [ptr+1 .. 2ptr] child1
//	leaf:      [1 .. K*nhi]      NHI vector, network 0 lowest
//
// The encoding is the contract the Verilog stage module decodes.
func EncodeEntry(e pipeline.Entry, k, ptrBits, nhiBits int) (uint64, error) {
	if 1+2*ptrBits > 64 || 1+k*nhiBits > 64 {
		return 0, fmt.Errorf("hdl: word exceeds 64 bits (ptr %d, K %d x nhi %d)", ptrBits, k, nhiBits)
	}
	if e.Leaf {
		v := uint64(1)
		for i, nh := range e.NHI {
			if int(nh) >= 1<<uint(nhiBits) {
				return 0, fmt.Errorf("hdl: next hop %d exceeds %d bits", nh, nhiBits)
			}
			v |= uint64(nh) << uint(1+i*nhiBits)
		}
		return v, nil
	}
	limit := uint32(1) << uint(ptrBits)
	if e.Child[0] >= limit || e.Child[1] >= limit {
		return 0, fmt.Errorf("hdl: child index exceeds %d pointer bits", ptrBits)
	}
	return uint64(e.Child[0])<<1 | uint64(e.Child[1])<<uint(1+ptrBits), nil
}

// DecodeEntry is EncodeEntry's inverse (used by the round-trip tests and by
// anyone loading the .mem files back).
func DecodeEntry(v uint64, level, k, ptrBits, nhiBits int) pipeline.Entry {
	e := pipeline.Entry{Level: level}
	if v&1 == 1 {
		e.Leaf = true
		e.NHI = make([]ip.NextHop, k)
		for i := 0; i < k; i++ {
			e.NHI[i] = ip.NextHop(v >> uint(1+i*nhiBits) & (1<<uint(nhiBits) - 1))
		}
		return e
	}
	e.Child[0] = uint32(v >> 1 & (1<<uint(ptrBits) - 1))
	e.Child[1] = uint32(v >> uint(1+ptrBits) & (1<<uint(ptrBits) - 1))
	return e
}
