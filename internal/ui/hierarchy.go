// Package ui models Android-style UI hierarchies and the screen abstraction
// used throughout the paper.
//
// A Screen is what a testing tool observes: an activity name plus a tree of
// widgets (Node). TaOPT never keys on concrete screens — dynamic text such as
// product names or timestamps would explode the state space — so it abstracts
// each hierarchy by removing the text associated with UI elements (Section
// 5.2, following [5, 60]) and compares abstract hierarchies with a tree
// similarity (following [66]).
package ui

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Node is one element of a UI hierarchy.
type Node struct {
	// Class is the widget class, e.g. "android.widget.Button".
	Class string
	// ResourceID is the developer-assigned identifier, possibly empty.
	ResourceID string
	// Text is the displayed text. Text is *not* part of the abstraction.
	Text string
	// Enabled reports whether the element accepts interaction. The Toller
	// driver clears it on elements matching blocked entrypoints.
	Enabled bool
	// Clickable marks elements that produce UI actions when tapped.
	Clickable bool
	// Children in drawing order.
	Children []*Node
}

// Clone returns a deep copy of the subtree rooted at n.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	c := *n
	if len(n.Children) > 0 {
		c.Children = make([]*Node, len(n.Children))
		for i, ch := range n.Children {
			c.Children[i] = ch.Clone()
		}
	}
	return &c
}

// Walk visits n and every descendant in depth-first pre-order. If f returns
// false the walk stops early.
func (n *Node) Walk(f func(*Node) bool) bool {
	if n == nil {
		return true
	}
	if !f(n) {
		return false
	}
	for _, ch := range n.Children {
		if !ch.Walk(f) {
			return false
		}
	}
	return true
}

// Size returns the number of nodes in the subtree rooted at n.
func (n *Node) Size() int {
	count := 0
	n.Walk(func(*Node) bool { count++; return true })
	return count
}

// Screen is an observed UI state: an activity plus its widget hierarchy.
type Screen struct {
	Activity string
	Root     *Node
}

// Clone returns a deep copy of the screen.
func (s *Screen) Clone() *Screen {
	if s == nil {
		return nil
	}
	return &Screen{Activity: s.Activity, Root: s.Root.Clone()}
}

// Signature identifies an abstract UI screen: the hierarchy with all element
// text removed, hashed together with the activity name. Two concrete screens
// that differ only in displayed text share a Signature.
type Signature uint64

// String renders the signature as a short stable hex token for logs/tables.
func (sig Signature) String() string { return fmt.Sprintf("ui:%012x", uint64(sig)&0xffffffffffff) }

// Abstract computes the screen's abstract signature. The abstraction removes
// text associated with UI elements and keeps structure, classes, resource IDs
// and enabled/clickable flags out of the hash as well — disabled elements must
// not change a screen's identity, otherwise TaOPT's own blocking would
// manufacture "new" screens.
//
//lint:hotpath
func (s *Screen) Abstract() Signature {
	h := fnvString(fnvOffset64, s.Activity)
	return Signature(writeAbstract(fnvByte(h, 0), s.Root))
}

//lint:hotpath
func writeAbstract(h uint64, n *Node) uint64 {
	if n == nil {
		return h
	}
	h = fnvString(fnvByte(h, '('), n.Class)
	h = fnvString(fnvByte(h, '#'), n.ResourceID)
	for _, ch := range n.Children {
		h = writeAbstract(h, ch)
	}
	return fnvByte(h, ')')
}

// FNV-1a/64, hashed inline over string bytes: the same function as
// hash/fnv's New64a without a []byte conversion per write.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, c byte) uint64 { return (h ^ uint64(c)) * fnvPrime64 }

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// WidgetPath identifies an element within an abstract hierarchy: the class
// and resource ID of the element plus its child-index path from the root.
// It is stable across text changes, which is what the coordinator needs to
// re-identify a blocked entrypoint element on a fresh render of the screen.
type WidgetPath string

// PathOf returns the WidgetPath for the node reached from root by the given
// child-index path.
func PathOf(root *Node, indexes []int) (WidgetPath, error) {
	n := root
	for _, i := range indexes {
		if n == nil || i < 0 || i >= len(n.Children) {
			return "", fmt.Errorf("ui: invalid widget path %v", indexes)
		}
		n = n.Children[i]
	}
	var b strings.Builder
	b.WriteString(n.Class)
	b.WriteByte('#')
	b.WriteString(n.ResourceID)
	b.WriteByte('@')
	for i, idx := range indexes {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(strconv.Itoa(idx))
	}
	return WidgetPath(b.String()), nil
}

// FindPath locates the node with the given WidgetPath in root, returning nil
// if the path does not resolve (e.g. the screen structure changed).
func FindPath(root *Node, p WidgetPath) *Node {
	s := string(p)
	at := strings.LastIndexByte(s, '@')
	if at < 0 {
		return nil
	}
	n := root
	rest := s[at+1:]
	if rest != "" {
		for _, part := range strings.Split(rest, ".") {
			idx := 0
			for _, c := range part {
				if c < '0' || c > '9' {
					return nil
				}
				idx = idx*10 + int(c-'0')
			}
			if n == nil || idx >= len(n.Children) {
				return nil
			}
			n = n.Children[idx]
		}
	}
	// Validate class#resource prefix to guard against structural drift.
	want := s[:at]
	if want != n.Class+"#"+n.ResourceID {
		return nil
	}
	return n
}

// Clickables returns, in pre-order, the index paths of all clickable and
// enabled elements of the hierarchy. These are the actions a tool can take.
func Clickables(root *Node) [][]int {
	var out [][]int
	var rec func(n *Node, path []int)
	rec = func(n *Node, path []int) {
		if n == nil {
			return
		}
		if n.Clickable && n.Enabled {
			out = append(out, append([]int(nil), path...))
		}
		for i, ch := range n.Children {
			rec(ch, append(path, i))
		}
	}
	rec(root, nil)
	return out
}

// SortedClasses returns the multiset of element classes in the subtree,
// sorted; useful for debugging and for coarse structural comparisons.
func SortedClasses(root *Node) []string {
	var classes []string
	root.Walk(func(n *Node) bool { classes = append(classes, n.Class); return true })
	sort.Strings(classes)
	return classes
}
