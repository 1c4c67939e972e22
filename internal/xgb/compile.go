package xgb

import (
	"fmt"
	"math"

	"trajforge/internal/parallel"
)

// This file is the compiled inference path: every trained (or loaded) model
// is lowered into a single contiguous node array covering the whole forest,
// and all predictions route through a branchless, predicated traversal loop
// over that array. The pointer trees stay authoritative for training and
// serialisation; the flat form is a pure, deterministic function of them,
// so pointer and flattened predictions are bit-identical (the property
// tests in compile_test.go pin this across random models, NaN features,
// and short/overlong vectors).
//
// Three structural ideas make the kernel fast:
//
//  1. Predicated descent. "Go left iff v < thresh OR (v is NaN AND
//     default-left)" is computed as flag arithmetic and used to *index*
//     the child pair, so the 50/50 split decision never becomes a
//     data-dependent branch (which would mispredict half the time).
//
//  2. Fixed-depth stepping. Leaves carry self-referencing children, so a
//     walk can take exactly depth(tree) steps with no leaf check inside
//     the loop: a lane that reaches its leaf early just spins in place.
//
//  3. Interleaved lanes. One row's descent is a serial load→compare→index
//     dependency chain, so the batch kernel steps four rows through the
//     same tree at once — four independent chains keep the load ports
//     busy instead of waiting out each level's latency in turn.

// flatNode is one forest node packed into 24 bytes.
//
//	val:  split threshold (internal) or leaf weight (leaf)
//	kids: child indices into the forest-wide node array; kids[1] is the
//	      left child and kids[0] the right, so the descent predicate
//	      selects the child by computed index. Leaves point both at
//	      themselves (the fixed-depth spin).
//	feat: featureIndex<<2 | defaultLeft<<1 | isLeaf. Leaves use feature 0
//	      so the leaf-free stepping loop still reads a valid cell.
type flatNode struct {
	val  float64
	kids [2]uint32
	feat int32
}

// forest is a compiled model: all trees' nodes in one array, laid out in
// depth-first preorder per tree so a traversal touches monotonically
// increasing, usually adjacent, indices.
type forest struct {
	nodes   []flatNode
	roots   []uint32
	depths  []uint8 // per-tree max depth: the fixed step count of a walk
	base    float64
	numFeat int
}

// compileForest lowers the pointer trees into the flat layout. It is pure:
// two calls on the same model produce identical forests.
func compileForest(m *Model) *forest {
	total := 0
	for i := range m.Trees {
		total += len(m.Trees[i].Nodes)
	}
	f := &forest{
		nodes:   make([]flatNode, 0, total),
		roots:   make([]uint32, 0, len(m.Trees)),
		depths:  make([]uint8, 0, len(m.Trees)),
		base:    m.BaseMargin,
		numFeat: m.NumFeat,
	}
	for i := range m.Trees {
		root, depth := f.emit(&m.Trees[i], 0)
		f.roots = append(f.roots, root)
		if depth > 255 {
			depth = 255 // unreachable at sane MaxDepth; keeps uint8 honest
		}
		f.depths = append(f.depths, uint8(depth))
	}
	return f
}

// emit appends the subtree rooted at pointer-node idx in preorder and
// returns its flat index and depth.
func (f *forest) emit(t *tree, idx int) (uint32, int) {
	nd := t.Nodes[idx]
	at := uint32(len(f.nodes))
	if nd.Feature < 0 {
		f.nodes = append(f.nodes, flatNode{val: nd.Weight, kids: [2]uint32{at, at}, feat: 1})
		return at, 0
	}
	feat := int32(nd.Feature) << 2
	if nd.Default {
		feat |= 2
	}
	f.nodes = append(f.nodes, flatNode{val: nd.Thresh, feat: feat})
	left, dl := f.emit(t, nd.Left)
	right, dr := f.emit(t, nd.Right)
	f.nodes[at].kids = [2]uint32{right, left}
	if dl < dr {
		dl = dr
	}
	return at, dl + 1
}

// leafFull walks one tree for a row known to cover every feature index the
// model splits on. The descent predicate
//
//	go left  iff  v < thresh  OR  (v is NaN AND default-left)
//
// reproduces the pointer semantics exactly: for ordinary values the NaN
// term is zero and the threshold decides; NaN fails every comparison, so
// the default-direction bit decides. Both comparisons materialise as
// flags, and kids[c&1] turns the outcome into a load.
func (f *forest) leafFull(root uint32, x []float64) float64 {
	nodes := f.nodes
	i := root
	for {
		nd := &nodes[i]
		ft := nd.feat
		if ft&1 != 0 {
			return nd.val
		}
		v := x[ft>>2]
		lt := 0
		if v < nd.val {
			lt = 1
		}
		nan := 0
		if v != v {
			nan = 1
		}
		i = nd.kids[(lt|(nan&int(ft>>1)))&1]
	}
}

// leafShort is leafFull for rows shorter than the training dimension:
// absent features read as NaN (missing) instead of panicking, matching
// tree.predict.
func (f *forest) leafShort(root uint32, x []float64) float64 {
	nodes := f.nodes
	i := root
	for {
		nd := &nodes[i]
		ft := nd.feat
		if ft&1 != 0 {
			return nd.val
		}
		v := math.NaN()
		if fi := int(ft >> 2); fi < len(x) {
			v = x[fi]
		}
		lt := 0
		if v < nd.val {
			lt = 1
		}
		nan := 0
		if v != v {
			nan = 1
		}
		i = nd.kids[(lt|(nan&int(ft>>1)))&1]
	}
}

// margin1 accumulates the forest margin for one row in tree order — the
// same float addition order as the pointer path, so the sum is bit-exact.
func (f *forest) margin1(x []float64) float64 {
	s := f.base
	if len(x) >= f.numFeat && len(x) > 0 {
		for _, root := range f.roots {
			s += f.leafFull(root, x)
		}
		return s
	}
	for _, root := range f.roots {
		s += f.leafShort(root, x)
	}
	return s
}

// marginBlock is the tree-major block size of marginsInto: small enough
// that a block of margins and one tree's nodes stay L1-resident together,
// large enough to amortise the per-tree loop overhead.
const marginBlock = 64

// marginsInto writes the forest margin of every row of X into dst without
// allocating. Rows are processed in blocks, tree-major within a block (one
// tree's nodes stay cache-hot across the whole block), four lanes at a
// time through the fixed-depth stepping loop. Per row the trees still
// accumulate in index order, so dst is bit-identical to calling margin1
// row by row.
func (f *forest) marginsInto(dst []float64, X [][]float64) {
	if len(dst) != len(X) {
		panic(fmt.Sprintf("xgb: margins into %d slots for %d rows", len(dst), len(X)))
	}
	nodes := f.nodes
	for lo := 0; lo < len(X); lo += marginBlock {
		hi := lo + marginBlock
		if hi > len(X) {
			hi = len(X)
		}
		rows, out := X[lo:hi], dst[lo:hi]
		full := true
		for _, x := range rows {
			if len(x) < f.numFeat || len(x) == 0 {
				full = false
				break
			}
		}
		for i := range out {
			out[i] = f.base
		}
		if !full {
			// Rare path: a row is missing trailing features; take the
			// bounds-checked scalar walk for the whole block.
			for _, root := range f.roots {
				for r, x := range rows {
					out[r] += f.leafShort(root, x)
				}
			}
			continue
		}
		for t, root := range f.roots {
			steps := int(f.depths[t])
			n8 := len(rows) &^ 7
			for r := 0; r < n8; r += 8 {
				x0, x1, x2, x3 := rows[r], rows[r+1], rows[r+2], rows[r+3]
				x4, x5, x6, x7 := rows[r+4], rows[r+5], rows[r+6], rows[r+7]
				i0, i1, i2, i3 := root, root, root, root
				i4, i5, i6, i7 := root, root, root, root
				for s := 0; s < steps; s++ {
					nd0, nd1, nd2, nd3 := &nodes[i0], &nodes[i1], &nodes[i2], &nodes[i3]
					nd4, nd5, nd6, nd7 := &nodes[i4], &nodes[i5], &nodes[i6], &nodes[i7]
					ft0, ft1, ft2, ft3 := nd0.feat, nd1.feat, nd2.feat, nd3.feat
					ft4, ft5, ft6, ft7 := nd4.feat, nd5.feat, nd6.feat, nd7.feat
					v0, v1, v2, v3 := x0[ft0>>2], x1[ft1>>2], x2[ft2>>2], x3[ft3>>2]
					v4, v5, v6, v7 := x4[ft4>>2], x5[ft5>>2], x6[ft6>>2], x7[ft7>>2]
					c0, c1, c2, c3 := 0, 0, 0, 0
					c4, c5, c6, c7 := 0, 0, 0, 0
					if v0 < nd0.val {
						c0 = 1
					}
					if v1 < nd1.val {
						c1 = 1
					}
					if v2 < nd2.val {
						c2 = 1
					}
					if v3 < nd3.val {
						c3 = 1
					}
					if v4 < nd4.val {
						c4 = 1
					}
					if v5 < nd5.val {
						c5 = 1
					}
					if v6 < nd6.val {
						c6 = 1
					}
					if v7 < nd7.val {
						c7 = 1
					}
					if v0 != v0 {
						c0 |= int(ft0 >> 1)
					}
					if v1 != v1 {
						c1 |= int(ft1 >> 1)
					}
					if v2 != v2 {
						c2 |= int(ft2 >> 1)
					}
					if v3 != v3 {
						c3 |= int(ft3 >> 1)
					}
					if v4 != v4 {
						c4 |= int(ft4 >> 1)
					}
					if v5 != v5 {
						c5 |= int(ft5 >> 1)
					}
					if v6 != v6 {
						c6 |= int(ft6 >> 1)
					}
					if v7 != v7 {
						c7 |= int(ft7 >> 1)
					}
					i0, i1, i2, i3 = nd0.kids[c0&1], nd1.kids[c1&1], nd2.kids[c2&1], nd3.kids[c3&1]
					i4, i5, i6, i7 = nd4.kids[c4&1], nd5.kids[c5&1], nd6.kids[c6&1], nd7.kids[c7&1]
				}
				out[r] += nodes[i0].val
				out[r+1] += nodes[i1].val
				out[r+2] += nodes[i2].val
				out[r+3] += nodes[i3].val
				out[r+4] += nodes[i4].val
				out[r+5] += nodes[i5].val
				out[r+6] += nodes[i6].val
				out[r+7] += nodes[i7].val
			}
			for r := n8; r < len(rows); r++ {
				x := rows[r]
				i := root
				for s := 0; s < steps; s++ {
					nd := &nodes[i]
					ft := nd.feat
					v := x[ft>>2]
					c := 0
					if v < nd.val {
						c = 1
					}
					if v != v {
						c |= int(ft >> 1)
					}
					i = nd.kids[c&1]
				}
				out[r] += nodes[i].val
			}
		}
	}
}

// forest returns the compiled form, lowering the pointer trees on first
// use. The compare-and-swap makes concurrent first calls safe: compilation
// is pure, so whichever forest wins publication is identical to the losers.
// Train and Load compile eagerly; this lazy path covers hand-built models
// (tests, fixtures) transparently.
func (m *Model) forest() *forest {
	if f := m.compiled.Load(); f != nil {
		return f
	}
	m.compiled.CompareAndSwap(nil, compileForest(m))
	return m.compiled.Load()
}

// PredictBatchInto scores every row of X into dst (len(dst) must equal
// len(X)) through the compiled forest with zero allocations — the verify
// kernel the batch pipeline and the benchmarks run. It is deterministic
// and bit-identical to calling PredictProb per row.
func (m *Model) PredictBatchInto(dst []float64, X [][]float64) {
	f := m.forest()
	f.marginsInto(dst, X)
	for i, s := range dst {
		dst[i] = sigmoid(s)
	}
}

// PredictBatch scores many rows, fanning blocks across the worker pool.
// Results are in row order and bit-identical to the serial loop. Callers
// on a hot path should prefer PredictBatchInto with a reused slice.
func (m *Model) PredictBatch(X [][]float64) []float64 {
	out := make([]float64, len(X))
	f := m.forest() // compile once, outside the fan-out
	parallel.ForEachChunk(len(X), func(lo, hi int) {
		f.marginsInto(out[lo:hi], X[lo:hi])
		for i := lo; i < hi; i++ {
			out[i] = sigmoid(out[i])
		}
	})
	return out
}
