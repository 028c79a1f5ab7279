package pipeline

// The layout oracle: the compiler and the flattener this package had while an
// image was an array of 56-byte Entry structs with a struct-of-arrays form
// derived beside it — trie → queue of placed nodes → Entry array per stage →
// meta / child / NHI slab / jump table — kept here, unchanged in what they
// compute, so the one-pass compiler's words can be held to them word for word:
// same index assignment, same slab order, same derived words.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"vrpower/internal/ip"
	"vrpower/internal/rib"
	"vrpower/internal/trie"
)

// refNode is a node of a leaf-pushed trie as the reference compiler walks it.
type refNode interface {
	leaf() bool
	child(b int) refNode
	appendNHI(slab []ip.NextHop) []ip.NextHop
}

// refUnion is a node of the trie over a table set's union (unionTrie).
type refUnion struct {
	u unionTrie
	n unionNode
}

func (r refUnion) leaf() bool { return r.u.kids(r.n) == [2]unionNode{} }
func (r refUnion) child(b int) refNode {
	if c := r.u.kids(r.n); c != [2]unionNode{} {
		return refUnion{r.u, c[b]}
	}
	return nil
}
func (r refUnion) appendNHI(slab []ip.NextHop) []ip.NextHop { return r.u.appendNHI(slab, r.n) }

// refCompile lays the trie out breadth-first into one Entry array per stage:
// a node's index within its stage is assigned when the node is enqueued and
// recorded in its parent's queue slot; replaying the queue emits every stage's
// entries in index order.
func refCompile(root refNode, sm trie.StageMap) ([][]Entry, error) {
	type placed struct {
		n     refNode
		level int
		child [2]uint32
	}
	queue := []placed{{n: root}}
	next := make([]uint32, sm.Stages) // next free index per stage
	next[sm.Stage(0)] = 1
	for head := 0; head < len(queue); head++ {
		n, level := queue[head].n, queue[head].level
		if n.leaf() {
			continue
		}
		s := sm.Stage(level + 1)
		for b := 0; b < 2; b++ {
			c := n.child(b)
			if c == nil {
				return nil, fmt.Errorf("internal node with missing child at level %d", level)
			}
			queue[head].child[b] = next[s]
			next[s]++
			queue = append(queue, placed{n: c, level: level + 1})
		}
	}
	stages := make([][]Entry, sm.Stages)
	for i := range queue {
		p := &queue[i]
		e := Entry{Level: p.level, Child: p.child}
		if p.n.leaf() {
			e.Leaf = true
			e.NHI = p.n.appendNHI(nil)
		}
		e.Parity = e.DataParity()
		s := sm.Stage(p.level)
		stages[s] = append(stages[s], e)
	}
	return stages, nil
}

// refFlat is the struct-of-arrays form refFlatten derives.
type refFlat struct {
	stages    []stage
	nhi       []ip.NextHop
	jump      []uint32
	jumpStage int
	jumpShift uint8
}

// refFlatten derives the word slices, the visit counts and the jump table from
// Entry arrays. Its meta words have no stored-parity bit: that lived in Entry.
func refFlatten(entries [][]Entry, sm trie.StageMap) *refFlat {
	f := &refFlat{stages: make([]stage, len(entries))}
	words := 0
	for s := range entries {
		fs := stage{
			meta:   make([]uint16, len(entries[s])),
			child:  make([][2]uint32, len(entries[s])),
			visits: 1,
		}
		lo, hi := -1, -1
		for i := range entries[s] {
			l := entries[s][i].Level
			if lo == -1 || l < lo {
				lo = l
			}
			if l > hi {
				hi = l
			}
		}
		if lo != -1 {
			fs.visits = hi - lo + 1
		}
		for i := range entries[s] {
			e := &entries[s][i]
			var m uint16
			if e.Parity != e.DataParity() {
				m |= metaParityBad
			}
			if e.Leaf {
				m |= metaLeaf | uint16(e.Level)&metaLevelMask
				fs.child[i] = [2]uint32{uint32(len(f.nhi)), uint32(len(e.NHI))}
				f.nhi = append(f.nhi, e.NHI...)
			} else {
				m |= uint16(31-e.Level) & metaShiftMask
				fs.child[i] = e.Child
				if sm.Stage(e.Level+1) == s {
					m |= metaFold
				}
			}
			fs.meta[i] = m
		}
		f.stages[s] = fs
		words += len(entries[s])
	}
	for s, level := 0, 0; s < len(f.stages) && level <= maxJumpBits && 1<<level <= words; s++ {
		f.jumpStage, f.jumpShift = s, uint8(32-level)
		level += f.stages[s].visits
	}
	if f.jumpStage > 0 {
		f.jump = make([]uint32, 1<<(32-f.jumpShift))
		t := f.jump
		level := 0
		for s := 0; s < f.jumpStage; s++ {
			meta, child := f.stages[s].meta, f.stages[s].child
			for v := 0; v < f.stages[s].visits; v++ {
				for p := 1<<level - 1; p >= 0; p-- {
					kids := [2]uint32{noJump, noJump}
					if idx := t[p]; uint64(idx) < uint64(len(meta)) {
						if m := meta[idx]; m&(metaLeaf|metaParityBad) == 0 && m&metaShiftMask == uint16(31-level) {
							kids = child[idx]
						}
					}
					t[2*p], t[2*p+1] = kids[0], kids[1]
				}
				level++
			}
		}
	}
	return f
}

// assertWordsMatchOracle holds img, word for word, to the reference pair run
// over the same trie.
func assertWordsMatchOracle(t *testing.T, img *Image, root refNode) {
	t.Helper()
	entries, err := refCompile(root, img.Map)
	if err != nil {
		t.Fatal(err)
	}
	ref := refFlatten(entries, img.Map)
	if img.Stages() != len(entries) {
		t.Fatalf("%d stages, oracle %d", img.Stages(), len(entries))
	}
	for s := range entries {
		if img.StageLen(s) != len(entries[s]) {
			t.Fatalf("stage %d: %d entries, oracle %d", s, img.StageLen(s), len(entries[s]))
		}
		st, rs := &img.stages[s], &ref.stages[s]
		if st.visits != rs.visits {
			t.Errorf("stage %d: %d visits, oracle %d", s, st.visits, rs.visits)
		}
		for i := range entries[s] {
			want := &entries[s][i]
			if m := st.meta[i] &^ metaParity; m != rs.meta[i] || st.child[i] != rs.child[i] {
				t.Fatalf("stage %d entry %d: words %#x %v, oracle %#x %v", s, i, m, st.child[i], rs.meta[i], rs.child[i])
			}
			got := img.Entry(s, uint32(i))
			if got.Leaf != want.Leaf || got.Level != want.Level || got.Child != want.Child ||
				got.Parity != want.Parity || !slices.Equal(got.NHI, want.NHI) || cap(got.NHI) != len(got.NHI) {
				t.Fatalf("stage %d entry %d: view %+v, oracle %+v", s, i, got, *want)
			}
		}
	}
	if !slices.Equal(img.nhi, ref.nhi) {
		t.Error("NHI slab differs from the oracle's")
	}
	if img.jumpStage != ref.jumpStage || img.jumpShift != ref.jumpShift || (img.jump == nil) != (ref.jump == nil) || !slices.Equal(img.jump, ref.jump) {
		t.Errorf("jump table into stage %d (shift %d, %d slots), oracle stage %d (shift %d, %d slots), or contents differ",
			img.jumpStage, img.jumpShift, len(img.jump), ref.jumpStage, ref.jumpShift, len(ref.jump))
	}
	if !Flatten(img).Equal(img) {
		t.Error("the derived words the compiler wrote are not what Flatten derives")
	}
	for s := range img.stages {
		if st := &img.stages[s]; cap(st.meta) != len(st.meta) || cap(st.child) != len(st.meta) || len(st.child) != len(st.meta) {
			t.Errorf("stage %d: %d meta words (room for %d), %d child words (room for %d)", s, len(st.meta), cap(st.meta), len(st.child), cap(st.child))
		}
	}
	if cap(img.nhi) != len(img.nhi) {
		t.Errorf("slab not at size: %d of %d", len(img.nhi), cap(img.nhi))
	}
}

// stageMaps returns the maps a trie of the given per-level node counts is
// compiled under: one level a stage with the shallow levels folded into stage
// 0 (28 stages), most of the trie folded into stage 0 (8), every level its own
// stage with empty ones to spare (40), a balanced partition, which folds
// levels into stages in the middle of the pipe, and a map made for a
// shallower trie, whose last stage takes every level past its range.
func stageMaps(t *testing.T, perLevel []int) map[string]trie.StageMap {
	t.Helper()
	maps := map[string]trie.StageMap{}
	for name, stages := range map[string]int{"plain": 28, "folded": 8, "roomy": 40} {
		sm, err := trie.NewStageMap(stages, len(perLevel)-1)
		if err != nil {
			t.Fatal(err)
		}
		maps[name] = sm
	}
	weights := make([]int64, len(perLevel))
	for l, n := range perLevel {
		weights[l] = int64(n)
	}
	sm, err := trie.NewBalancedStageMap(12, weights)
	if err != nil {
		t.Fatal(err)
	}
	maps["balanced"] = sm
	if sm, err = trie.NewStageMap(6, 9); err != nil {
		t.Fatal(err)
	}
	maps["short"] = sm
	return maps
}

// TestCompiledWordsMatchLayoutOracle: random tables, single and merged, under
// every kind of stage map, and the corners — an empty table, a default route
// alone, a trie too shallow to reach most stages.
func TestCompiledWordsMatchLayoutOracle(t *testing.T) {
	check := func(name string, tables []*rib.Table) {
		u := newUnionTrie(tables)
		var perLevel []int
		for _, l := range u.tr.Stats().PerLevel {
			perLevel = append(perLevel, l.Nodes)
		}
		for mapName, sm := range stageMaps(t, perLevel) {
			t.Run(name+"/"+mapName, func(t *testing.T) {
				img, err := NewRoutes(tables).Compile(sm)
				if err != nil {
					t.Fatal(err)
				}
				if img.K != len(tables) {
					t.Fatalf("K = %d, want %d", img.K, len(tables))
				}
				assertWordsMatchOracle(t, img, refUnion{u, unionNode{}})
			})
		}
	}
	uni := func(name string, routes []ip.Route) { check(name, []*rib.Table{{Routes: routes}}) }
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 4; i++ {
		uni(fmt.Sprintf("uni/%d", i), genTable(t, 40+rng.Intn(900), rng.Int63()).Routes)
	}
	uni("uni/empty table", nil)
	uni("uni/default route only", []ip.Route{{Prefix: ip.Prefix{}, NextHop: 5}})
	var shallow []ip.Route
	for i := 0; i < 256; i += 2 {
		p, _ := ip.PrefixFrom(ip.Addr(i)<<24, 8)
		shallow = append(shallow, ip.Route{Prefix: p, NextHop: ip.NextHop(1 + i%7)})
	}
	uni("uni/shallow", shallow)

	for _, k := range []int{1, 3, 8} {
		set, err := rib.GenerateVirtualSet(k, 150+rng.Intn(500), 0.5, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("merged/K=%d", k), set.Tables)
	}
}
