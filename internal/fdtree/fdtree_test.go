package fdtree

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/dep"
)

// attrs A..F = 0..5 for readability.
const (
	A = iota
	B
	C
	D
	E
	F
)

func set(n int, attrs ...int) bitset.Set { return bitset.FromAttrs(n, attrs...) }

func fdsOf(t *Tree) map[string]bool {
	m := map[string]bool{}
	for _, f := range dep.SplitRHS(t.FDs()) {
		m[f.String()] = true
	}
	return m
}

// TestFigure1 builds the extended FD-tree of Figure 1 (right): FDs A→B,
// AB→CD, CD→B over R = {A,B,C,D}.
func TestFigure1(t *testing.T) {
	tr := New(4)
	tr.AddFD(set(4, A), set(4, B))
	tr.AddFD(set(4, A, B), set(4, C, D))
	tr.AddFD(set(4, C, D), set(4, B))

	if got := tr.CountFDs(); got != 4 {
		t.Errorf("CountFDs = %d, want 4 (B, C, D, B)", got)
	}
	// Node A is an FD-node with RHS {B}; its child B holds {C,D}.
	nodeA := tr.Root().child(A)
	if nodeA == nil || !nodeA.IsFDNode() || !nodeA.RHS.Equal(set(4, B)) {
		t.Fatalf("node A wrong: %+v", nodeA)
	}
	nodeAB := nodeA.child(B)
	if nodeAB == nil || !nodeAB.RHS.Equal(set(4, C, D)) {
		t.Fatalf("node AB wrong")
	}
	// Unlike the classic tree, the root carries no labels at all.
	if tr.Root().IsFDNode() {
		t.Error("root should not be an FD-node")
	}
	if lvl1 := tr.NodesAtLevel(1); len(lvl1) != 2 { // A and C
		t.Errorf("level 1 has %d nodes, want 2", len(lvl1))
	}
}

// TestExample2 reproduces Example 2: tree = {AC→E} over R={A..E}; the
// non-FD AC ↛ BDE induces ABC→E and ACD→E.
func TestExample2(t *testing.T) {
	tr := New(5)
	tr.AddFD(set(5, A, C), set(5, E))
	removed := tr.Induct(set(5, A, C), set(5, B, D, E))
	if removed != 1 {
		t.Errorf("removed = %d, want 1", removed)
	}
	got := fdsOf(tr)
	want := []string{
		dep.FD{LHS: set(5, A, B, C), RHS: set(5, E)}.String(),
		dep.FD{LHS: set(5, A, C, D), RHS: set(5, E)}.String(),
	}
	if len(got) != 2 {
		t.Fatalf("got %d FDs: %v", len(got), got)
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing %s in %v", w, got)
		}
	}
	// Node C on path AC must no longer be an FD-node (Example 2's point).
	nodeAC := tr.Root().child(A).child(C)
	if nodeAC.IsFDNode() {
		t.Error("node AC should have lost its RHS")
	}
	if !nodeAC.HasLiveChildren() {
		t.Error("node AC should have a live child D")
	}
}

// TestExample3 reproduces Example 3: tree = {AC→BE}; the non-FD AC ↛ BDE
// induces ACD→BE, ABC→E, ACE→B.
func TestExample3(t *testing.T) {
	tr := New(5)
	tr.AddFD(set(5, A, C), set(5, B, E))
	tr.Induct(set(5, A, C), set(5, B, D, E))
	got := fdsOf(tr)
	want := []string{
		dep.FD{LHS: set(5, A, C, D), RHS: set(5, B)}.String(),
		dep.FD{LHS: set(5, A, C, D), RHS: set(5, E)}.String(),
		dep.FD{LHS: set(5, A, B, C), RHS: set(5, E)}.String(),
		dep.FD{LHS: set(5, A, C, E), RHS: set(5, B)}.String(),
	}
	if len(got) != len(want) {
		t.Fatalf("got %d FDs %v, want %d", len(got), got, len(want))
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing %s", w)
		}
	}
}

// containsGeneralization reports whether the tree holds an FD Z → a with
// Z ⊆ lhs.
func containsGeneralization(tr *Tree, lhs bitset.Set, a int) bool {
	return tr.CoveredRHS(lhs, bitset.FromAttrs(tr.numAttrs, a)).Contains(a)
}

func TestAddUncoveredFiltersGeneralizations(t *testing.T) {
	tr := New(4)
	tr.AddFD(set(4, A), set(4, B))
	// A→B exists; adding AC→{B,D} must only add AC→D.
	added := tr.addUncovered(set(4, A, C), set(4, B, D))
	if added != 1 {
		t.Errorf("added = %d, want 1", added)
	}
	if !containsGeneralization(tr, set(4, A, C), B) {
		t.Error("A→B should cover B")
	}
	node := tr.Root().child(A).child(C)
	if !node.RHS.Equal(set(4, D)) {
		t.Errorf("AC rhs = %v, want {D}", node.RHS)
	}
}

func TestAddUncoveredTrivialAndCoveredNoop(t *testing.T) {
	tr := New(4)
	if tr.addUncovered(set(4, A, B), set(4, A)) != 0 {
		t.Error("trivial FD should not be added")
	}
	tr.AddFD(set(4, A), set(4, B))
	if tr.addUncovered(set(4, A), set(4, B)) != 0 {
		t.Error("duplicate FD should not be added")
	}
}

func TestInductOnFullRHSRoot(t *testing.T) {
	// Start of every induction-based discovery: ∅→R, then apply a non-FD.
	tr := NewWithFullRHS(3)
	if tr.CountFDs() != 3 {
		t.Fatalf("initial count = %d", tr.CountFDs())
	}
	// Non-FD ∅ ↛ {A,B,C}? Realistic: agree set {A} gives A ↛ BC.
	tr.Induct(set(3, A), set(3, B, C))
	// ∅→A survives; ∅→B, ∅→C are specialized.
	got := fdsOf(tr)
	want := map[string]bool{
		dep.FD{LHS: set(3), RHS: set(3, A)}.String():       true,
		dep.FD{LHS: set(3, B), RHS: set(3, C)}.String():    true,
		dep.FD{LHS: set(3, C), RHS: set(3, B)}.String():    true,
		dep.FD{LHS: set(3, A, B), RHS: set(3, C)}.String(): false, // covered by B→C
	}
	for w, present := range want {
		if got[w] != present {
			t.Errorf("FD %s: present=%v want %v (all: %v)", w, got[w], present, got)
		}
	}
}

func TestSubtreeCounters(t *testing.T) {
	tr := New(5)
	tr.AddFD(set(5, A), set(5, B))
	tr.AddFD(set(5, A, C), set(5, D, E))
	if tr.CountFDs() != 3 {
		t.Fatalf("count = %d", tr.CountFDs())
	}
	nodeA := tr.Root().child(A)
	if nodeA.SubtreeFDs() != 3 {
		t.Errorf("subtree(A) = %d", nodeA.SubtreeFDs())
	}
	nodeAC := nodeA.child(C)
	tr.RemoveRHS(nodeAC, D)
	tr.RemoveRHS(nodeAC, D) // absent attribute: no-op
	tr.RemoveRHS(nodeAC, E)
	if tr.CountFDs() != 1 || nodeA.SubtreeFDs() != 1 || nodeAC.SubtreeFDs() != 0 {
		t.Errorf("after removal: count=%d subtree(A)=%d subtree(AC)=%d",
			tr.CountFDs(), nodeA.SubtreeFDs(), nodeAC.SubtreeFDs())
	}
	// The AC node is dead; level 2 must be empty.
	if nodes := tr.NodesAtLevel(2); len(nodes) != 0 {
		t.Errorf("level 2 = %d nodes", len(nodes))
	}
	tr.AddRHS(nodeAC, E)
	if tr.CountFDs() != 2 || nodeA.SubtreeFDs() != 2 || len(tr.NodesAtLevel(2)) != 1 {
		t.Errorf("after re-adding AC→E: count=%d subtree(A)=%d", tr.CountFDs(), nodeA.SubtreeFDs())
	}
}

func TestPathAndDepth(t *testing.T) {
	tr := New(5)
	tr.AddFD(set(5, A, C, E), set(5, B))
	node := tr.Root().child(A).child(C).child(E)
	if !node.Path(5).Equal(set(5, A, C, E)) {
		t.Errorf("path = %v", node.Path(5))
	}
	if node.Depth() != 3 {
		t.Errorf("depth = %d", node.Depth())
	}
	if tr.MaxLevel() != 3 {
		t.Errorf("MaxLevel = %d", tr.MaxLevel())
	}
}

func TestIDAssignment(t *testing.T) {
	tr := New(6)
	tr.ControlledLevel = 2
	tr.AddFD(set(6, A, C), set(6, F))
	nodeC := tr.Root().child(A).child(C)
	nodeC.ID = 9 // pretend the DDM assigned slot 3 (9 - 6)
	// New path through AC beyond cl inherits the id.
	tr.AddFD(set(6, A, C, E), set(6, F))
	nodeE := nodeC.child(E)
	if nodeE.ID != 9 {
		t.Errorf("node E id = %d, want inherited 9", nodeE.ID)
	}
	// New node at depth <= cl gets the default id (Example 4's point).
	tr.AddFD(set(6, A, B, C), set(6, E))
	nodeB := tr.Root().child(A).child(B)
	if nodeB.ID != B {
		t.Errorf("node B id = %d, want default %d", nodeB.ID, B)
	}
	nodeC2 := nodeB.child(C)
	if nodeC2.ID != C {
		t.Errorf("node C (path ABC) id = %d, want default %d", nodeC2.ID, C)
	}
	// Propagation copies ids downward.
	nodeC.ID = 11
	PropagateID(nodeC)
	if nodeE.ID != 11 {
		t.Errorf("after propagate, node E id = %d", nodeE.ID)
	}
}

func TestClassicTreeLabels(t *testing.T) {
	tr := NewClassic(4)
	tr.Add(set(4, A), B)
	tr.Add(set(4, A, B), C)
	tr.Add(set(4, A, B), D)
	tr.Add(set(4, C, D), B)
	if tr.CountFDs() != 4 {
		t.Fatalf("count = %d", tr.CountFDs())
	}
	// Classic labelling: root carries every RHS attribute (Figure 1 left).
	if !tr.root.labels.Contains(B) || !tr.root.labels.Contains(C) || !tr.root.labels.Contains(D) {
		t.Errorf("root labels = %v", tr.root.labels)
	}
	if !tr.ContainsGeneralization(set(4, A, B, C), B) {
		t.Error("A→B is a generalization of ABC→B")
	}
	if tr.ContainsGeneralization(set(4, C), B) {
		t.Error("no generalization of C→B exists")
	}
}

func TestClassicRemoveGeneralizations(t *testing.T) {
	tr := NewClassic(4)
	tr.Add(set(4, A), B)
	tr.Add(set(4, C), B)
	removed := tr.RemoveGeneralizations(set(4, A, C, D), B)
	if len(removed) != 2 {
		t.Fatalf("removed %d FDs", len(removed))
	}
	if tr.CountFDs() != 0 {
		t.Errorf("count = %d", tr.CountFDs())
	}
}

// TestClassicVsSynergizedEquivalence checks the load-bearing property that
// classic per-attribute induction and synergized induction compute the same
// minimal FD set from the same non-FD stream.
func TestClassicVsSynergizedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 6
	for trial := 0; trial < 30; trial++ {
		ext := NewWithFullRHS(n)
		cls := NewClassicWithFullRHS(n)
		nonFDs := randomNonFDs(rng, n, 1+rng.Intn(12))
		for _, x := range nonFDs {
			inductBoth(ext, cls, x, bitset.Full(n).Difference(x))
		}
		checkSameCover(t, ext, cls, fmt.Sprintf("trial %d (non-FD LHSs %v)", trial, nonFDs))
	}
}

func randomNonFDs(rng *rand.Rand, n, k int) []bitset.Set {
	out := make([]bitset.Set, k)
	for i := range out {
		s := bitset.New(n)
		for j := 0; j < n; j++ {
			if rng.Intn(3) != 0 {
				s.Add(j)
			}
		}
		// A non-FD X ↛ R−X needs a non-full X to be meaningful.
		if s.Count() == n {
			s.Remove(rng.Intn(n))
		}
		out[i] = s
	}
	return out
}

// TestMinimalityInvariant checks that after arbitrary induction sequences
// no FD in the tree has a generalization in the tree.
func TestMinimalityInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 7
	for trial := 0; trial < 20; trial++ {
		tr := NewWithFullRHS(n)
		for _, x := range randomNonFDs(rng, n, 1+rng.Intn(15)) {
			y := bitset.Full(n)
			y.DifferenceWith(x)
			tr.Induct(x, y)
		}
		checkMinimal(t, tr, fmt.Sprintf("trial %d", trial))
		fds := dep.SplitRHS(tr.FDs())
		// Counter consistency.
		if got := len(fds); got != tr.CountFDs() {
			t.Fatalf("trial %d: CountFDs=%d but extracted %d", trial, tr.CountFDs(), got)
		}
	}
}

// TestInductionSoundComplete: the tree after processing all non-FDs must
// contain exactly the minimal FDs not contradicted by any processed non-FD.
func TestInductionSoundComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const n = 5
	for trial := 0; trial < 40; trial++ {
		tr := NewWithFullRHS(n)
		nonFDs := randomNonFDs(rng, n, 1+rng.Intn(8))
		for _, x := range nonFDs {
			y := bitset.Full(n)
			y.DifferenceWith(x)
			tr.Induct(x, y)
		}
		got := map[string]bool{}
		for _, f := range dep.SplitRHS(tr.FDs()) {
			got[f.String()] = true
		}
		want := bruteForceMinimalUncontradicted(n, nonFDs)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d FDs want %d\ngot: %v\nwant: %v", trial, len(got), len(want), got, want)
		}
		for w := range want {
			if !got[w] {
				t.Fatalf("trial %d: missing %s", trial, w)
			}
		}
	}
}

// bruteForceMinimalUncontradicted enumerates all minimal FDs X→a over n
// attributes such that no non-FD Z (meaning Z ↛ R−Z) has X ⊆ Z and a ∉ Z.
func bruteForceMinimalUncontradicted(n int, nonFDs []bitset.Set) map[string]bool {
	res := map[string]bool{}
	for a := 0; a < n; a++ {
		var valid []bitset.Set
		for mask := 0; mask < 1<<n; mask++ {
			if mask&(1<<a) != 0 {
				continue
			}
			x := bitset.New(n)
			for b := 0; b < n; b++ {
				if mask&(1<<b) != 0 {
					x.Add(b)
				}
			}
			contradicted := false
			for _, z := range nonFDs {
				if x.IsSubsetOf(z) && !z.Contains(a) {
					contradicted = true
					break
				}
			}
			if contradicted {
				continue
			}
			minimal := true
			for _, v := range valid {
				if v.IsSubsetOf(x) {
					minimal = false
					break
				}
			}
			if minimal {
				valid = append(valid, x)
				rhs := bitset.New(n)
				rhs.Add(a)
				res[dep.FD{LHS: x, RHS: rhs}.String()] = true
			}
		}
	}
	return res
}
