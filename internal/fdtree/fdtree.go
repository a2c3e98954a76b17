// Package fdtree implements the FD-tree data structures FD discovery is
// built on: the classic FD-tree of Flach and Savnik, and the paper's
// extended FD-tree with FD-nodes, node ids and synergized induction.
//
// An FD-tree represents a set of FDs: the LHS of an FD is a root-to-node
// path of ascending attributes, and the terminal node carries the RHS
// attributes. The extended tree stores RHS attributes only at FD-nodes
// (the paper's Section IV-C), avoiding the classic tree's excessive
// labelling of every ancestor.
//
// The trees maintain the minimality invariant discovery needs: no FD in the
// tree has a generalization (same RHS attribute, subset LHS) elsewhere in
// the tree. Synergized induction (Algorithm 2) preserves the invariant by
// filtering candidate RHSs against existing generalizations alone: on a
// minimal tree, and for a non-FD whose LHS and RHS are disjoint, no
// candidate it inserts can have a specialization already in the tree.
//
// Every extended-tree node carries two one-word summaries that prune the
// induction walks: below, a superset of the RHS attributes at or below the
// node, and childMask, the attributes of its children. Summary words hold
// attributes 0..62 one bit each and fold every attribute >= 63 onto bit 63
// ("some attribute >= 63, maybe"), so they stay exact up to 64 attributes
// and sound, if coarser, beyond.
package fdtree

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"repro/internal/bitset"
	"repro/internal/dep"
)

// Node is a node of an extended FD-tree. Exported fields are read by the
// discovery algorithms; mutation goes through Tree methods. The layout is
// packed to 96 bytes on 64-bit platforms: induction allocates millions of
// nodes, so every word shows up in the allocation totals.
type Node struct {
	// RHS holds the FD's right-hand side when the node is an FD-node;
	// empty or nil otherwise.
	RHS bitset.Set

	parent   *Node
	children []*Node // sorted ascending by Attr

	// ID indexes a stripped partition: values in [0, numAttrs) denote the
	// pre-computed single-attribute partition of that attribute; values
	// >= numAttrs denote slot ID-numAttrs of the dynamic data manager.
	ID int

	// below is a summary-word superset of the RHS attributes at or below
	// the node: grown on every insertion, tightened by the induction walk
	// on its way back up.
	below uint64
	// childMask is the summary word of the children's attributes.
	childMask uint64

	// Attr is the attribute this node represents, -1 for the root.
	Attr int32
	// Epoch is the DDM generation ID refers to. The DDM replaces its
	// partition array whenever the controlled level advances (Algorithm 3);
	// ids minted for an older array are stale — the situation Example 4 of
	// the paper calls an inconsistent id — and are ignored at lookup time.
	Epoch int32

	subtree int32 // number of (FD-node, RHS-attribute) pairs at or below
	// Pruned marks a node a fused top-k run abandoned: no FD at or below
	// it can still enter the heap, so validation skips it. Only the
	// heap's admissions are reported, never the tree, so pruned nodes
	// merely save work.
	Pruned bool
}

// Summary words: bits 0..62 stand for attributes 0..62, bit 63 for "some
// attribute >= 63".
const (
	foldAttr = 63
	highBit  = uint64(1) << foldAttr
	lowMask  = highBit - 1
)

// attrBit returns attribute a's bit in a summary word.
func attrBit(a int) uint64 {
	if a >= foldAttr {
		return highBit
	}
	return 1 << uint(a)
}

// summary folds s into a summary word.
func summary(s bitset.Set) uint64 {
	if len(s) == 0 {
		return 0
	}
	w := s[0]
	for _, x := range s[1:] {
		if x != 0 {
			return w | highBit
		}
	}
	return w
}

// summaryDiff folds s \ o into a summary word without materializing it.
func summaryDiff(s, o bitset.Set) uint64 {
	if len(s) == 0 {
		return 0
	}
	w := s[0]
	if len(o) > 0 {
		w &^= o[0]
	}
	for i := 1; i < len(s); i++ {
		x := s[i]
		if i < len(o) {
			x &^= o[i]
		}
		if x != 0 {
			return w | highBit
		}
	}
	return w
}

// highAttrs returns the tail of the ascending attrs that the summary words
// fold onto bit 63.
func highAttrs(attrs []int) []int {
	i := sort.SearchInts(attrs, foldAttr)
	return attrs[i:]
}

// Parent returns the node's parent, nil for the root.
func (n *Node) Parent() *Node { return n.parent }

// Children returns the node's children in ascending attribute order. The
// slice is owned by the node; callers must not modify it.
func (n *Node) Children() []*Node { return n.children }

// Child returns the child representing attr, or nil.
func (n *Node) Child(attr int) *Node { return n.child(attr) }

// IsFDNode reports whether the node carries at least one RHS attribute.
func (n *Node) IsFDNode() bool { return n.RHS != nil && !n.RHS.IsEmpty() }

// RHSCount returns the number of RHS attributes at this node.
func (n *Node) RHSCount() int {
	if n.RHS == nil {
		return 0
	}
	return n.RHS.Count()
}

// SubtreeFDs returns the number of FDs at or below this node.
func (n *Node) SubtreeFDs() int { return int(n.subtree) }

// RHSBelowWithin reports whether every RHS attribute at or below the node
// lies in s. It reads the node's summary, a superset, so it may answer
// false for a subtree that is within s, but never true for one that is
// not. Attributes >= 63 count as within s only when s holds all of them.
func (n *Node) RHSBelowWithin(s bitset.Set) bool {
	b := n.below
	if b == 0 {
		return true
	}
	if len(s) == 0 || b&^s[0] != 0 {
		return false
	}
	if b&highBit != 0 {
		for _, w := range s[1:] {
			if w != ^uint64(0) {
				return false
			}
		}
	}
	return true
}

// HasLiveChildren reports whether any child subtree still contains FDs.
// A validated node with live children is "reusable" in the paper's sense:
// its stripped partition can seed the partitions of deeper levels.
func (n *Node) HasLiveChildren() bool {
	for _, c := range n.children {
		if c.subtree > 0 {
			return true
		}
	}
	return false
}

// Path returns the attribute set of the root-to-node path.
func (n *Node) Path(numAttrs int) bitset.Set {
	s := bitset.New(numAttrs)
	for cur := n; cur != nil && cur.Attr >= 0; cur = cur.parent {
		s.Add(int(cur.Attr))
	}
	return s
}

// Depth returns the node's depth; the root has depth 0.
func (n *Node) Depth() int {
	d := 0
	for cur := n; cur.parent != nil; cur = cur.parent {
		d++
	}
	return d
}

// child finds the child for attr by its rank in childMask. Attributes
// >= 63 share one mask bit, so among the children holding them — the tail
// of the sorted slice — the lookup falls back to a binary search.
func (n *Node) child(attr int) *Node {
	bit := attrBit(attr)
	if n.childMask&bit == 0 {
		return nil
	}
	if bit != highBit {
		return n.children[bits.OnesCount64(n.childMask&(bit-1))]
	}
	tail := n.children[bits.OnesCount64(n.childMask&lowMask):]
	i := sort.Search(len(tail), func(i int) bool { return int(tail[i].Attr) >= attr })
	if i < len(tail) && int(tail[i].Attr) == attr {
		return tail[i]
	}
	return nil
}

func (n *Node) insertChild(c *Node) {
	i := sort.Search(len(n.children), func(i int) bool { return n.children[i].Attr >= c.Attr })
	n.children = append(n.children, nil)
	copy(n.children[i+1:], n.children[i:])
	n.children[i] = c
	n.childMask |= attrBit(int(c.Attr))
}

// tighten recomputes the node's below summary from its own RHS and its
// live children's summaries.
func (n *Node) tighten() {
	b := summary(n.RHS)
	for _, c := range n.children {
		if c.subtree > 0 {
			b |= c.below
		}
	}
	n.below = b
}

// Tree is an extended FD-tree over a schema of numAttrs attributes.
type Tree struct {
	root     *Node
	numAttrs int
	words    int
	full     bitset.Set

	// ControlledLevel is the paper's cl: new nodes at depth > cl inherit
	// their parent's id, new nodes at depth <= cl get the default id of
	// their own attribute. FDEP-style uses of the tree leave it at 0.
	ControlledLevel int

	// Induction scratch. The tree is single-writer (induction is serial
	// in every algorithm), so these are reused across calls: attrsBuf by
	// the generalization check, xAttrs by Induct's outer walk — which is
	// live while the former runs — remBuf by Induct for the RHS attributes
	// it hands to specialize, and the other sets by addUncovered and
	// specialize.
	attrsBuf, xAttrs                     []int
	covBuf, candBuf, remBuf              bitset.Set
	outsideBuf, lhsBuf, restBuf, pathBuf bitset.Set
}

// scratchSet returns *buf sized to the schema, allocating it on first use.
func (t *Tree) scratchSet(buf *bitset.Set) bitset.Set {
	if *buf == nil {
		*buf = make(bitset.Set, t.words)
	}
	return *buf
}

// New returns an extended FD-tree containing no FDs.
func New(numAttrs int) *Tree {
	return &Tree{
		root:     &Node{Attr: -1, ID: -1},
		numAttrs: numAttrs,
		words:    bitset.WordsFor(numAttrs),
		full:     bitset.Full(numAttrs),
	}
}

// NewWithFullRHS returns a tree initialized with the single FD ∅ → R, the
// starting point of induction-based discovery.
func NewWithFullRHS(numAttrs int) *Tree {
	t := New(numAttrs)
	t.root.RHS = bitset.Full(numAttrs)
	t.bump(t.root, numAttrs, summary(t.root.RHS))
	return t
}

// NumAttrs returns the schema width.
func (t *Tree) NumAttrs() int { return t.numAttrs }

// Root returns the root node.
func (t *Tree) Root() *Node { return t.root }

// CountFDs returns the total number of FDs in the tree, counting one per
// (FD-node, RHS-attribute) pair.
func (t *Tree) CountFDs() int { return int(t.root.subtree) }

func (t *Tree) newRHS() bitset.Set { return make(bitset.Set, t.words) }

// bump walks from n up to the root, adjusting the subtree counters by
// delta and widening the below summaries by the RHS summary rhs. Removals
// pass rhs = 0: a summary only has to stay a superset, and the induction
// walk tightens it on its way back up.
func (t *Tree) bump(n *Node, delta int, rhs uint64) {
	for cur := n; cur != nil; cur = cur.parent {
		cur.subtree += int32(delta)
		cur.below |= rhs
	}
}

// AddFD inserts lhs → rhs without any minimality filtering, creating the
// path as needed (Algorithm 1), and returns the FD-node.
func (t *Tree) AddFD(lhs, rhs bitset.Set) *Node {
	node := t.addPath(lhs)
	t.addRHSSet(node, rhs)
	return node
}

// addRHSSet unions rhs into node's RHS, maintaining the subtree counters
// and summaries, and returns the number of RHS attributes it added.
func (t *Tree) addRHSSet(node *Node, rhs bitset.Set) int {
	if node.RHS == nil {
		node.RHS = t.newRHS()
	}
	before := node.RHS.Count()
	node.RHS.UnionWith(rhs)
	added := node.RHS.Count() - before
	if added > 0 {
		t.bump(node, added, summary(rhs))
	}
	return added
}

// addPath walks the path for lhs, creating missing nodes with the id rule
// of Algorithm 1, and returns the terminal node.
func (t *Tree) addPath(lhs bitset.Set) *Node {
	cur := t.root
	depth := 0
	for a := lhs.Next(0); a >= 0; a = lhs.Next(a + 1) {
		depth++
		next := cur.child(a)
		if next == nil {
			next = &Node{Attr: int32(a), parent: cur}
			if depth > t.ControlledLevel && cur.ID >= t.numAttrs {
				// Inherit a dynamic id: the parent's partition attributes are
				// a subset of the parent path and hence of the child path.
				next.ID, next.Epoch = cur.ID, cur.Epoch
			} else {
				next.ID = a // default id: the node's own attribute
			}
			cur.insertChild(next)
		}
		cur = next
	}
	return cur
}

// RemoveRHS clears one RHS attribute at the given node, maintaining the
// subtree counters. No-op when the node is nil or lacks the attribute.
// The below summaries stay as they are: still supersets, merely looser.
func (t *Tree) RemoveRHS(n *Node, a int) {
	if n == nil || n.RHS == nil || !n.RHS.Contains(a) {
		return
	}
	n.RHS.Remove(a)
	t.bump(n, -1, 0)
}

// AddRHS sets one RHS attribute at the given node, maintaining the subtree
// counters and summaries. No-op when the node is nil or already has the
// attribute.
func (t *Tree) AddRHS(n *Node, a int) {
	if n == nil {
		return
	}
	if n.RHS == nil {
		n.RHS = t.newRHS()
	}
	if n.RHS.Contains(a) {
		return
	}
	n.RHS.Add(a)
	t.bump(n, 1, attrBit(a))
}

// addUncovered inserts lhs → rhs minus its trivial attributes and minus
// the attributes some FD Z → B with Z ⊆ lhs already covers, and returns
// the number of FDs it inserted. It removes nothing: on a minimal tree,
// the candidates specialize inserts have no specializations to remove
// (see Induct).
func (t *Tree) addUncovered(lhs, rhs bitset.Set) int {
	cand := t.scratchSet(&t.candBuf)
	copy(cand, rhs)
	cand.DifferenceWith(lhs) // non-trivial only
	if cand.IsEmpty() {
		return 0
	}
	covered := t.scratchSet(&t.covBuf)
	covered.Clear()
	t.coveredRHSInto(lhs, cand, covered)
	cand.DifferenceWith(covered)
	if cand.IsEmpty() {
		return 0
	}
	return t.addRHSSet(t.addPath(lhs), cand)
}

// CoveredRHS returns the subset of cand covered by some FD Z → B in the
// tree with Z ⊆ lhs (Z = lhs included).
func (t *Tree) CoveredRHS(lhs, cand bitset.Set) bitset.Set {
	acc := t.newRHS()
	t.coveredRHSInto(lhs, cand, acc)
	return acc
}

// coveredRHSInto accumulates the covered subset of cand into acc, reusing
// the tree's attribute scratch.
func (t *Tree) coveredRHSInto(lhs, cand, acc bitset.Set) {
	t.attrsBuf = lhs.AppendAttrs(t.attrsBuf[:0])
	var low uint64
	if len(lhs) > 0 {
		low = lhs[0] & lowMask
	}
	t.coveredRec(t.root, low, highAttrs(t.attrsBuf), cand, acc)
}

// coveredRec visits the children on lhs paths — low, the lhs attributes
// below 63, intersected with the child mask, then the high attributes one
// by one — skipping every subtree whose summary holds none of the still
// uncovered candidates.
func (t *Tree) coveredRec(cur *Node, low uint64, high []int, cand, acc bitset.Set) bool {
	if cur.RHS != nil {
		acc.UnionIntersection(cur.RHS, cand)
		if cand.IsSubsetOf(acc) {
			return true // everything covered; stop early
		}
	}
	need := summaryDiff(cand, acc)
	for m := low & cur.childMask; m != 0; m &= m - 1 {
		c := cur.children[bits.OnesCount64(cur.childMask&(m&-m-1))]
		if c.subtree == 0 || c.below&need == 0 {
			continue
		}
		if t.coveredRec(c, low, high, cand, acc) {
			return true
		}
		need = summaryDiff(cand, acc)
	}
	if cur.childMask&highBit == 0 {
		return false
	}
	for _, a := range high {
		c := cur.child(a)
		if c == nil || c.subtree == 0 || c.below&need == 0 {
			continue
		}
		if t.coveredRec(c, low, high, cand, acc) {
			return true
		}
		need = summaryDiff(cand, acc)
	}
	return false
}

// Induct applies the non-FD x ↛ y with synergized induction (Algorithm 2):
// every FD X' → Y' in the tree with X' ⊆ x and Y' ∩ y ≠ ∅ loses the
// intersecting RHS attributes, and all non-trivial minimal specializations
// are inserted. It returns the number of FDs removed.
//
// x and y must be disjoint. Every candidate the walk inserts then has
// exactly one attribute outside x, and minimality alone keeps out its
// specializations: one already in the tree, from before the walk or from
// earlier in it, would imply two FDs P → A and P′ → A with P ⊊ P′ in the
// tree before the walk. So nothing is ever removed to make room for a
// candidate (DESIGN.md, "FD-tree node summaries").
func (t *Tree) Induct(x, y bitset.Set) int {
	removedTotal := 0
	t.xAttrs = x.AppendAttrs(t.xAttrs[:0])
	var low uint64
	if len(x) > 0 {
		low = x[0] & lowMask
	}
	path := t.scratchSet(&t.pathBuf)
	path.Clear()
	t.inductRec(t.root, low, highAttrs(t.xAttrs), x, y, summary(y), path, &removedTotal)
	return removedTotal
}

// inductRec visits the x paths below cur like coveredRec, skipping every
// subtree whose summary misses y, and reports whether it removed anything
// at or below cur. Specialization inserts new nodes mid-walk, so the child
// mask is re-read after every visit.
func (t *Tree) inductRec(cur *Node, low uint64, high []int, x, y bitset.Set, ySum uint64, path bitset.Set, removedTotal *int) bool {
	changed := false
	if cur.RHS != nil && cur.RHS.Intersects(y) {
		removed := t.scratchSet(&t.remBuf)
		copy(removed, cur.RHS)
		removed.IntersectWith(y)
		n := removed.Count()
		cur.RHS.DifferenceWith(y)
		t.bump(cur, -n, 0)
		*removedTotal += n
		t.specialize(path, x, removed)
		changed = true
	}
	for m := low & cur.childMask; m != 0; {
		bit := m & -m
		c := cur.children[bits.OnesCount64(cur.childMask&(bit-1))]
		if c.below&ySum != 0 {
			a := bits.TrailingZeros64(bit)
			path.Add(a)
			if t.inductRec(c, low, high, x, y, ySum, path, removedTotal) {
				changed = true
			}
			path.Remove(a)
		}
		m = low & cur.childMask &^ (bit<<1 - 1)
	}
	if cur.childMask&highBit != 0 {
		for _, a := range high {
			c := cur.child(a)
			if c == nil || c.below&ySum == 0 {
				continue
			}
			path.Add(a)
			if t.inductRec(c, low, high, x, y, ySum, path, removedTotal) {
				changed = true
			}
			path.Remove(a)
		}
	}
	if changed {
		cur.tighten()
	}
	return changed
}

// specialize inserts the minimal non-trivial candidates that replace the
// invalidated FD path → removed, per the two augmentation rules of
// Algorithm 2.
func (t *Tree) specialize(path, x, removed bitset.Set) {
	// Rule 1: extend the LHS with an attribute outside x ∪ removed.
	outside := t.scratchSet(&t.outsideBuf)
	copy(outside, t.full)
	outside.DifferenceWith(x)
	outside.DifferenceWith(removed)
	lhs := t.scratchSet(&t.lhsBuf)
	copy(lhs, path)
	for a := outside.Next(0); a >= 0; a = outside.Next(a + 1) {
		if path.Contains(a) {
			continue
		}
		lhs.Add(a)
		t.addUncovered(lhs, removed)
		lhs.Remove(a)
	}
	// Rule 2: move one removed attribute onto the LHS.
	if removed.Count() > 1 {
		rest := t.scratchSet(&t.restBuf)
		for a := removed.Next(0); a >= 0; a = removed.Next(a + 1) {
			lhs.Add(a)
			copy(rest, removed)
			rest.Remove(a)
			t.addUncovered(lhs, rest)
			lhs.Remove(a)
		}
	}
}

// NodesAtLevel returns the nodes at the given depth whose subtrees still
// contain FDs, in depth-first order. Depth 0 is the root.
func (t *Tree) NodesAtLevel(level int) []*Node {
	var out []*Node
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		if n.subtree == 0 {
			return
		}
		if depth == level {
			out = append(out, n)
			return
		}
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	walk(t.root, 0)
	return out
}

// MaxLevel returns the deepest level that still contains an FD-node.
func (t *Tree) MaxLevel() int {
	maxDepth := 0
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		if n.subtree == 0 {
			return
		}
		if n.IsFDNode() && depth > maxDepth {
			maxDepth = depth
		}
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	walk(t.root, 0)
	return maxDepth
}

// FDs extracts every FD in the tree as singleton-free (set-RHS) FDs.
func (t *Tree) FDs() []dep.FD {
	var out []dep.FD
	path := bitset.New(t.numAttrs)
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.subtree == 0 {
			return
		}
		if n.IsFDNode() {
			out = append(out, dep.FD{LHS: path.Clone(), RHS: n.RHS.Clone()})
		}
		for _, c := range n.children {
			path.Add(int(c.Attr))
			walk(c)
			path.Remove(int(c.Attr))
		}
	}
	walk(t.root)
	return out
}

// ForEachFD visits every FD-node in depth-first child order with the
// attribute set of its path. The lhs set is reused between calls — the
// visitor must clone it to keep it. Checkpoint serialization walks the
// tree through this: the (lhs, RHS, Pruned) triples are the tree's whole
// logical state, since dead branches (subtree 0) hold no FDs and node
// IDs/epochs are rebuilt as consistent defaults on resume.
func (t *Tree) ForEachFD(fn func(lhs bitset.Set, n *Node)) {
	path := bitset.New(t.numAttrs)
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.subtree == 0 {
			return
		}
		if n.IsFDNode() {
			fn(path, n)
		}
		for _, c := range n.children {
			path.Add(int(c.Attr))
			walk(c)
			path.Remove(int(c.Attr))
		}
	}
	walk(t.root)
}

// PropagateID copies n's id and epoch to every descendant, restoring id
// consistency after the dynamic data manager refreshed n's partition
// (Algorithm 3, step 15).
func PropagateID(n *Node) {
	for _, c := range n.children {
		c.ID, c.Epoch = n.ID, n.Epoch
		PropagateID(c)
	}
}

// NodeCount returns the number of live nodes (root excluded).
func (t *Tree) NodeCount() int {
	n := 0
	var walk func(node *Node)
	walk = func(node *Node) {
		for _, c := range node.children {
			if c.subtree > 0 || c.IsFDNode() {
				n++
				walk(c)
			}
		}
	}
	walk(t.root)
	return n
}

// String renders the tree for debugging.
func (t *Tree) String() string {
	var b strings.Builder
	var walk func(n *Node, indent string)
	walk = func(n *Node, indent string) {
		label := "ROOT"
		if n.Attr >= 0 {
			label = fmt.Sprintf("%d(id=%d)", n.Attr, n.ID)
		}
		rhs := ""
		if n.IsFDNode() {
			rhs = " -> " + n.RHS.String()
		}
		fmt.Fprintf(&b, "%s%s%s [sub=%d]\n", indent, label, rhs, n.subtree)
		for _, c := range n.children {
			walk(c, indent+"  ")
		}
	}
	walk(t.root, "")
	return b.String()
}
