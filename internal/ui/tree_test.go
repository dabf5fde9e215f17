package ui

import (
	"fmt"
	"strconv"
	"strings"
)

// Tree helpers the tests build and inspect hierarchies with. Production code
// never searches a rendered tree: the device layer derives every widget path
// from the app's widget list, and the Toller driver enforces blocks by
// leaving widgets out of the action list.

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
