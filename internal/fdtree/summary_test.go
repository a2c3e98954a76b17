package fdtree

import (
	"fmt"
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
				inductBoth(ext, cls, x, bitset.Full(n).Difference(x))
			}
			checkSameCover(t, ext, cls, fmt.Sprintf("n=%d trial %d (non-FDs miss %v)", n, trial, missing(n, nonFDs)))
			if got, want := ext.CountFDs(), len(dep.SplitRHS(ext.FDs())); got != want {
				t.Fatalf("n=%d trial %d: CountFDs = %d, extracted %d", n, trial, got, want)
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
					op = "addUncovered"
					tr.addUncovered(randSet(rng.Intn(4)), randSet(1+rng.Intn(2)))
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

// checkMinimal fails the test unless every FD in the tree is non-trivial
// and has no generalization with a shared RHS attribute in the tree — the
// invariant induction keeps without any specialization removal. It scans
// every pair of FD-nodes, independent of the pruned walks under test.
func checkMinimal(t *testing.T, tr *Tree, context string) {
	t.Helper()
	fds := tr.FDs()
	for _, f := range fds {
		if f.RHS.Intersects(f.LHS) {
			t.Fatalf("%s: trivial FD %s", context, f)
		}
		for _, g := range fds {
			if g.LHS.IsSubsetOf(f.LHS) && !g.LHS.Equal(f.LHS) && g.RHS.Intersects(f.RHS) {
				t.Fatalf("%s: %s has the generalization %s", context, f, g)
			}
		}
	}
}

// checkSameCover fails the test unless the extended and the classic tree
// hold the same FDs.
func checkSameCover(t *testing.T, ext *Tree, cls *ClassicTree, context string) {
	t.Helper()
	extFDs, clsFDs := dep.SplitRHS(ext.FDs()), dep.SplitRHS(cls.FDs())
	if !dep.Equal(extFDs, clsFDs) {
		onlyExt, onlyCls := dep.Diff(extFDs, clsFDs, nil)
		t.Fatalf("%s: trees diverge.\nonly extended: %v\nonly classic: %v", context, onlyExt, onlyCls)
	}
}

// inductBoth applies the non-FD x ↛ y to the extended tree and, one RHS
// attribute at a time, to the classic tree.
func inductBoth(ext *Tree, cls *ClassicTree, x, y bitset.Set) {
	ext.Induct(x, y)
	for a := y.Next(0); a >= 0; a = y.Next(a + 1) {
		cls.SpecializeClassic(x, a)
	}
}

// TestInductKeepsMinimal runs random sequences of the two induction forms
// discovery uses — a sampled non-FD Induct(x, R∖x) and a failed validation
// Induct(lhs, invalid) — from ∅ → R, and after every step requires a
// minimal tree whose cover equals per-attribute induction on a classic
// tree.
func TestInductKeepsMinimal(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, n := range []int{7, 70} {
		for trial := 0; trial < 15; trial++ {
			ext, cls := NewWithFullRHS(n), NewClassicWithFullRHS(n)
			for step := 0; step < 30; step++ {
				var x, y bitset.Set
				op := "Induct(x, R∖x)"
				if fdNodes := ext.FDs(); step%3 == 2 && len(fdNodes) > 0 {
					op = "Induct(lhs, invalid)"
					f := fdNodes[rng.Intn(len(fdNodes))]
					x, y = f.LHS, bitset.New(n)
					y.Add(f.RHS.Max())
					if rng.Intn(2) == 0 {
						y.Add(f.RHS.Min())
					}
				} else {
					if n <= 8 {
						x = randomNonFDs(rng, n, 1)[0]
					} else {
						x = sparseNonFD(rng, n)
					}
					y = bitset.Full(n).Difference(x)
				}
				inductBoth(ext, cls, x, y)
				context := fmt.Sprintf("n=%d trial %d step %d %s", n, trial, step, op)
				checkMinimal(t, ext, context)
				checkSameCover(t, ext, cls, context)
			}
			checkInvariants(t, ext)
		}
	}
}

// FuzzInductMinimal decodes fuzz bytes into a schema width (first byte,
// 1..8) and a sequence of agree sets (one byte each, masked to the width),
// inducts each as the non-FD x ↛ R∖x, and checks the tree stays minimal
// and equal to per-attribute induction on a classic tree. Run with:
//
//	go test -fuzz=FuzzInductMinimal ./internal/fdtree
//
// Without -fuzz the seed corpus (testdata/fuzz) runs as a regression test.
func FuzzInductMinimal(f *testing.F) {
	f.Add([]byte{4, 0b0011, 0b0101, 0b1000})
	f.Add([]byte{7, 0x3f, 0x1f, 0x0f, 0x07, 0x03, 0x01, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0])%8 + 1
		ext, cls := NewWithFullRHS(n), NewClassicWithFullRHS(n)
		for i, b := range data[1:] {
			x := bitset.New(n)
			for a := 0; a < n; a++ {
				if b&(1<<a) != 0 {
					x.Add(a)
				}
			}
			if x.Count() == n {
				continue // a duplicate tuple pair implies no non-FD
			}
			inductBoth(ext, cls, x, bitset.Full(n).Difference(x))
			context := fmt.Sprintf("n=%d agree set %d (%v)", n, i, x)
			checkMinimal(t, ext, context)
			checkSameCover(t, ext, cls, context)
		}
	})
}
