package ui

import (
	"fmt"
	"testing"
	"testing/quick"
)

// button builds a clickable leaf.
func button(res, text string) *Node {
	return &Node{Class: "android.widget.Button", ResourceID: res, Text: text, Enabled: true, Clickable: true}
}

func screen(activity string, widgets ...*Node) *Screen {
	container := &Node{Class: "android.widget.LinearLayout", ResourceID: "container", Enabled: true, Children: widgets}
	root := &Node{Class: "android.widget.FrameLayout", ResourceID: "content", Enabled: true,
		Children: []*Node{{Class: "Toolbar", ResourceID: "toolbar", Enabled: true}, container}}
	return &Screen{Activity: activity, Root: root}
}

func TestAbstractIgnoresText(t *testing.T) {
	a := screen("MainActivity", button("b1", "Hello"), button("b2", "World"))
	b := screen("MainActivity", button("b1", "Bonjour"), button("b2", "Monde 42"))
	if a.Abstract() != b.Abstract() {
		t.Fatal("signatures must ignore element text")
	}
}

func TestAbstractIgnoresEnabled(t *testing.T) {
	a := screen("MainActivity", button("b1", "x"), button("b2", "y"))
	b := screen("MainActivity", button("b1", "x"), button("b2", "y"))
	b.Root.Children[1].Children[0].Enabled = false
	if a.Abstract() != b.Abstract() {
		t.Fatal("disabling an element (TaOPT's own blocking) must not change identity")
	}
}

func TestAbstractSensitivity(t *testing.T) {
	base := screen("MainActivity", button("b1", "x"))
	cases := map[string]*Screen{
		"activity":   screen("OtherActivity", button("b1", "x")),
		"resourceID": screen("MainActivity", button("b9", "x")),
		"structure":  screen("MainActivity", button("b1", "x"), button("b2", "y")),
	}
	for name, other := range cases {
		if base.Abstract() == other.Abstract() {
			t.Errorf("signature must change with %s", name)
		}
	}
	// Class sensitivity.
	c := screen("MainActivity", button("b1", "x"))
	c.Root.Children[1].Children[0].Class = "android.widget.ImageView"
	if base.Abstract() == c.Abstract() {
		t.Error("signature must change with element class")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := screen("A", button("b1", "x"))
	c := &Screen{Activity: a.Activity, Root: a.Root.Clone()}
	c.Root.Children[1].Children[0].Text = "changed"
	c.Root.Children[1].Children[0].Enabled = false
	if a.Root.Children[1].Children[0].Text != "x" || !a.Root.Children[1].Children[0].Enabled {
		t.Fatal("Clone shares nodes with the original")
	}
}

func TestWalkEarlyStop(t *testing.T) {
	s := screen("A", button("b1", "x"), button("b2", "y"), button("b3", "z"))
	count := 0
	s.Root.Walk(func(*Node) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("walk visited %d nodes, want early stop at 3", count)
	}
	if got := s.Root.Size(); got != 6 {
		t.Fatalf("Size = %d, want 6", got)
	}
}

func TestPathRoundTrip(t *testing.T) {
	s := screen("A", button("b1", "x"), button("b2", "y"))
	path, err := PathOf(s.Root, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	n := FindPath(s.Root, path)
	if n == nil || n.ResourceID != "b2" {
		t.Fatalf("FindPath(%q) = %v, want b2", path, n)
	}
	// Root path.
	rp, err := PathOf(s.Root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if FindPath(s.Root, rp) != s.Root {
		t.Fatal("root path must resolve to root")
	}
}

func TestPathOfInvalid(t *testing.T) {
	s := screen("A", button("b1", "x"))
	if _, err := PathOf(s.Root, []int{9}); err == nil {
		t.Fatal("expected error for out-of-range path")
	}
}

func TestFindPathStructuralDrift(t *testing.T) {
	a := screen("A", button("b1", "x"), button("b2", "y"))
	path, _ := PathOf(a.Root, []int{1, 1})
	// A different screen where index [1,1] is a different element.
	b := screen("A", button("b9", "x"), button("b8", "y"))
	if FindPath(b.Root, path) != nil {
		t.Fatal("FindPath must reject paths whose class#resource no longer matches")
	}
	if FindPath(b.Root, "garbage") != nil {
		t.Fatal("FindPath must reject malformed paths")
	}
	if FindPath(b.Root, WidgetPath("Button#b9@1.9")) != nil {
		t.Fatal("FindPath must reject out-of-range indexes")
	}
}

func TestClickablesOrderAndFiltering(t *testing.T) {
	s := screen("A", button("b1", "x"), button("b2", "y"), button("b3", "z"))
	s.Root.Children[1].Children[1].Enabled = false // disable b2
	paths := Clickables(s.Root)
	if len(paths) != 2 {
		t.Fatalf("clickables = %d, want 2 (b2 disabled)", len(paths))
	}
	first, _ := PathOf(s.Root, paths[0])
	second, _ := PathOf(s.Root, paths[1])
	if FindPath(s.Root, first).ResourceID != "b1" || FindPath(s.Root, second).ResourceID != "b3" {
		t.Fatalf("clickables out of pre-order: %v %v", first, second)
	}
}

func TestSimilarityIdentical(t *testing.T) {
	a := screen("A", button("b1", "x"), button("b2", "y"))
	b := screen("A", button("b1", "other"), button("b2", "text"))
	if got := Similarity(a.Root, b.Root); got != 1 {
		t.Fatalf("Similarity of text-variant screens = %v, want 1", got)
	}
}

func TestSimilarityDisjoint(t *testing.T) {
	a := screen("A", button("b1", "x"))
	b := &Screen{Activity: "A", Root: &Node{Class: "X", ResourceID: "y"}}
	if got := Similarity(a.Root, b.Root); got > 0.1 {
		t.Fatalf("Similarity of unrelated trees = %v, want ≈0", got)
	}
}

func TestSimilarityDegradesSmoothly(t *testing.T) {
	mk := func(n int) *Screen {
		var ws []*Node
		for i := 0; i < n; i++ {
			ws = append(ws, button(fmt.Sprintf("b%d", i), "t"))
		}
		return screen("A", ws...)
	}
	s10, s11, s15 := mk(10), mk(11), mk(15)
	near := Similarity(s10.Root, s11.Root)
	far := Similarity(s10.Root, s15.Root)
	if !(near > far) {
		t.Fatalf("adding more rows must lower similarity: near=%v far=%v", near, far)
	}
	if near < 0.85 {
		t.Fatalf("one extra row should stay above the match threshold: %v", near)
	}
}

func TestScreenSimilarityActivityGate(t *testing.T) {
	a := screen("A", button("b1", "x"))
	b := screen("B", button("b1", "x"))
	if ShapeSimilarity(ShapeOf(a), ShapeOf(b)) != 0 {
		t.Fatal("different activities must not match")
	}
	if ShapeSimilarity(ShapeOf(nil), nil) != 1 || ShapeSimilarity(ShapeOf(a), nil) != 0 {
		t.Fatal("nil handling")
	}
}

// TestSimilarityProperties checks the metric axioms that CountIn relies on.
func TestSimilarityProperties(t *testing.T) {
	gen := func(seed int64) *Screen {
		n := int(seed%5) + 1
		var ws []*Node
		for i := 0; i < n; i++ {
			ws = append(ws, button(fmt.Sprintf("w%d_%d", seed, i), "t"))
		}
		return screen(fmt.Sprintf("Act%d", seed%3), ws...)
	}
	if err := quick.Check(func(s1, s2 int64) bool {
		a, b := gen(s1), gen(s2)
		ab := Similarity(a.Root, b.Root)
		ba := Similarity(b.Root, a.Root)
		if ab != ba {
			return false // symmetry
		}
		if ab < 0 || ab > 1 {
			return false // range
		}
		return Similarity(a.Root, a.Root) == 1 // identity
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSignatureString(t *testing.T) {
	s := screen("A", button("b1", "x"))
	str := s.Abstract().String()
	if len(str) == 0 || str[:3] != "ui:" {
		t.Fatalf("Signature.String = %q", str)
	}
}
