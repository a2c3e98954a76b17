package fdtree

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/bitset"
	"repro/internal/dep"
)

// TestNodeSize pins the packed node layout: the summaries must not make
// the node, of which induction allocates millions, any larger.
func TestNodeSize(t *testing.T) {
	if size := unsafe.Sizeof(Node{}); size > 96 {
		t.Fatalf("unsafe.Sizeof(Node{}) = %d, want <= 96", size)
	}
}

// boundaryPick draws attributes of an n-wide schema, half the time from
// the ones around the 63/64 summary fold and the end of the schema, so
// that sparse random draws still put high attributes on paths and RHSs.
func boundaryPick(rng *rand.Rand, n int) int {
	if rng.Intn(2) == 0 {
		near := []int{n - 1, n - 2, 61, 62, 63, 64, 65}
		if a := near[rng.Intn(len(near))]; a >= 0 && a < n {
			return a
		}
	}
	return rng.Intn(n)
}

// sparseNonFD returns a non-FD LHS missing one to three attributes. Each
// induction then touches only the few FDs whose RHS it misses, which keeps
// trees over a hundred attributes small. Every fourth draw misses only
// attributes >= 63 (when the schema has any), the case a summary that
// forgot them would prune wrongly.
func sparseNonFD(rng *rand.Rand, n int) bitset.Set {
	x := bitset.Full(n)
	d := 1 + rng.Intn(3)
	highOnly := n > foldAttr && rng.Intn(4) == 0
	for i := 0; i < d; i++ {
		if highOnly {
			x.Remove(foldAttr + rng.Intn(n-foldAttr))
		} else {
			x.Remove(boundaryPick(rng, n))
		}
	}
	return x
}

// TestWideSchemaDifferential runs synergized induction on extended trees
// against per-attribute induction on classic trees at widths straddling
// the one-word boundary of the node summaries.
func TestWideSchemaDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for _, n := range []int{63, 64, 65, 130} {
		for trial := 0; trial < 12; trial++ {
			ext := NewWithFullRHS(n)
			cls := NewClassicWithFullRHS(n)
			var nonFDs []bitset.Set
			for k := 8 + rng.Intn(12); k > 0; k-- {
				x := sparseNonFD(rng, n)
				nonFDs = append(nonFDs, x)
				y := bitset.Full(n)
				y.DifferenceWith(x)
				ext.Induct(x, y)
				for a := y.Next(0); a >= 0; a = y.Next(a + 1) {
					cls.SpecializeClassic(x, a)
				}
			}
			extFDs := dep.SplitRHS(ext.FDs())
			clsFDs := dep.SplitRHS(cls.FDs())
			if !dep.Equal(extFDs, clsFDs) {
				onlyA, onlyB := dep.Diff(extFDs, clsFDs, nil)
				t.Fatalf("n=%d trial %d: trees diverge.\nnon-FDs miss: %v\nonly extended: %v\nonly classic: %v",
					n, trial, missing(n, nonFDs), onlyA, onlyB)
			}
			if got := ext.CountFDs(); got != len(extFDs) {
				t.Fatalf("n=%d trial %d: CountFDs = %d, extracted %d", n, trial, got, len(extFDs))
			}
			checkInvariants(t, ext)
		}
	}
}

// missing renders the complements of the non-FD LHSs, which is what the
// sparse draws vary.
func missing(n int, nonFDs []bitset.Set) []string {
	out := make([]string, len(nonFDs))
	for i, x := range nonFDs {
		out[i] = bitset.Full(n).Difference(x).String()
	}
	return out
}

// checkInvariants walks the whole tree and fails the test unless every
// node's below summary covers the RHS attributes at or below it, its child
// mask equals its children's attributes, every child is found by rank,
// and the subtree counters agree with the RHSs.
func checkInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	var walk func(n *Node) (bitset.Set, int)
	walk = func(n *Node) (bitset.Set, int) {
		union, count := bitset.New(tr.numAttrs), 0
		if n.RHS != nil {
			union.UnionWith(n.RHS)
			count += n.RHS.Count()
		}
		var mask uint64
		for i, c := range n.children {
			if c.parent != n {
				t.Fatalf("node %v: child %d has the wrong parent", n.Path(tr.numAttrs), c.Attr)
			}
			if c.Attr <= n.Attr || (i > 0 && n.children[i-1].Attr >= c.Attr) {
				t.Fatalf("node %v: children out of order at %d", n.Path(tr.numAttrs), c.Attr)
			}
			if got := n.child(int(c.Attr)); got != c {
				t.Fatalf("node %v: child(%d) does not find its child", n.Path(tr.numAttrs), c.Attr)
			}
			mask |= attrBit(int(c.Attr))
			u, k := walk(c)
			union.UnionWith(u)
			count += k
		}
		path := n.Path(tr.numAttrs)
		if mask != n.childMask {
			t.Fatalf("node %v: childMask %#x, children give %#x", path, n.childMask, mask)
		}
		if missed := summary(union) &^ n.below; missed != 0 {
			t.Fatalf("node %v: below %#x misses %#x of the RHSs below (%v)", path, n.below, missed, union)
		}
		if int(n.subtree) != count {
			t.Fatalf("node %v: subtree %d, RHSs below count %d", path, n.subtree, count)
		}
		return union, count
	}
	walk(tr.root)
}

// allNodes lists the tree's nodes in depth-first order.
func allNodes(tr *Tree) []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		out = append(out, n)
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(tr.root)
	return out
}

// naiveCovered is CoveredRHS by a scan of every FD in the tree.
func naiveCovered(tr *Tree, lhs, cand bitset.Set) bitset.Set {
	acc := bitset.New(tr.numAttrs)
	for _, f := range tr.FDs() {
		if f.LHS.IsSubsetOf(lhs) {
			acc.UnionWith(f.RHS.Intersect(cand))
		}
	}
	return acc
}

// TestSummaryInvariants applies random mixes of every mutating operation
// — full and partial induction, minimal and plain insertion, single RHS
// removal and re-insertion — and checks the node invariants and the
// pruned CoveredRHS walk against a full scan after each step.
func TestSummaryInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{7, 70} {
		pick := func() int { return boundaryPick(rng, n) }
		randSet := func(k int) bitset.Set {
			s := bitset.New(n)
			for i := 0; i < k; i++ {
				s.Add(pick())
			}
			return s
		}
		for trial := 0; trial < 15; trial++ {
			tr := NewWithFullRHS(n)
			checkInvariants(t, tr)
			for step := 0; step < 40; step++ {
				nodes := allNodes(tr)
				node := nodes[rng.Intn(len(nodes))]
				var op string
				switch rng.Intn(6) {
				case 0:
					op = "Induct"
					x := sparseNonFD(rng, n)
					if n <= 8 {
						x = randSet(rng.Intn(n))
					}
					tr.Induct(x, bitset.Full(n).Difference(x))
				case 1:
					op = "Induct(lhs, invalid)"
					if !node.IsFDNode() {
						continue
					}
					invalid := bitset.New(n)
					invalid.Add(node.RHS.Max())
					if rng.Intn(2) == 0 {
						invalid.Add(node.RHS.Min())
					}
					tr.Induct(node.Path(n), invalid)
				case 2:
					op = "AddMinimalFD"
					tr.AddMinimalFD(randSet(rng.Intn(4)), randSet(1+rng.Intn(2)))
				case 3:
					op = "AddFD"
					lhs := randSet(rng.Intn(3))
					tr.AddFD(lhs, randSet(1).Difference(lhs))
				case 4:
					op = "RemoveRHS"
					if node.IsFDNode() {
						tr.RemoveRHS(node, node.RHS.Min())
					}
				case 5:
					op = "AddRHS"
					if a := pick(); !node.Path(n).Contains(a) {
						tr.AddRHS(node, a)
					}
				}
				checkInvariants(t, tr)
				lhs, cand := randSet(rng.Intn(5)), randSet(1+rng.Intn(4))
				if got, want := tr.CoveredRHS(lhs, cand), naiveCovered(tr, lhs, cand); !got.Equal(want) {
					t.Fatalf("n=%d trial %d step %d (%s): CoveredRHS(%v, %v) = %v, want %v",
						n, trial, step, op, lhs, cand, got, want)
				}
			}
		}
	}
}

// TestRHSBelowWithin pins the summary subset test the cover trie prunes
// with: never true for a set missing an RHS attribute, and exact up to 64
// attributes (beyond, the folded attributes make it answer false).
func TestRHSBelowWithin(t *testing.T) {
	for _, n := range []int{10, 64, 70} {
		tr := New(n)
		node := tr.AddFD(bitset.FromAttrs(n, 1), bitset.FromAttrs(n, 2, n-1))
		for _, nd := range []*Node{tr.Root(), node} {
			for _, s := range []bitset.Set{bitset.FromAttrs(n, 2), bitset.FromAttrs(n, n-1)} {
				if nd.RHSBelowWithin(s) {
					t.Errorf("n=%d: RHSBelowWithin(%v) = true, want false", n, s)
				}
			}
			if n > 64 {
				continue
			}
			for _, s := range []bitset.Set{bitset.FromAttrs(n, 2, n-1), bitset.Full(n)} {
				if !nd.RHSBelowWithin(s) {
					t.Errorf("n=%d: RHSBelowWithin(%v) = false, want true", n, s)
				}
			}
		}
		if !New(n).Root().RHSBelowWithin(bitset.New(n)) {
			t.Errorf("n=%d: an empty tree is within the empty set", n)
		}
	}
}
