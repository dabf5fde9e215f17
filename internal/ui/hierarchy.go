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

import "fmt"

// Node is one element of a UI hierarchy.
type Node struct {
	// Class is the widget class, e.g. "android.widget.Button".
	Class string
	// ResourceID is the developer-assigned identifier, possibly empty.
	ResourceID string
	// Text is the displayed text. Text is *not* part of the abstraction.
	Text string
	// Enabled reports whether the element accepts interaction.
	Enabled bool
	// Clickable marks elements that produce UI actions when tapped.
	Clickable bool
	// Children in drawing order.
	Children []*Node
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
// It is stable across text changes, so an entrypoint block recorded on one
// visit of a screen names the same element on every later visit.
type WidgetPath string
