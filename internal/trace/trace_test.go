package trace

import (
	"testing"

	"taopt/internal/sim"
	"taopt/internal/ui"
)

func mkScreen(activity, res string) *ui.Screen {
	return &ui.Screen{Activity: activity, Root: &ui.Node{
		Class: "FrameLayout", ResourceID: res, Enabled: true,
		Children: []*ui.Node{{Class: "Button", ResourceID: res + "_b", Text: "hello", Enabled: true, Clickable: true}},
	}}
}

func TestActionKindString(t *testing.T) {
	for kind, want := range map[ActionKind]string{
		ActionLaunch: "launch", ActionTap: "tap", ActionBack: "back", ActionKind(99): "unknown",
	} {
		if kind.String() != want {
			t.Errorf("%d.String() = %q, want %q", kind, kind.String(), want)
		}
	}
}

func TestLogScreens(t *testing.T) {
	var l Log
	l.Append(Event{At: 5, To: ui.Signature(1)})
	l.Append(Event{At: 9, To: ui.Signature(2)})
	sigs, times := l.Screens()
	if len(sigs) != 2 || sigs[1] != ui.Signature(2) || times[0] != 5 {
		t.Fatalf("Screens = %v %v", sigs, times)
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
}

// observe registers s in b and returns its signature.
func observe(b *Book, s *ui.Screen) ui.Signature {
	sig := s.Abstract()
	b.Observe(sig, func() *ui.Screen { return s })
	return sig
}

func TestBookDedup(t *testing.T) {
	b := NewBook()
	s1 := mkScreen("A", "r1")
	s2 := mkScreen("A", "r1") // same structure, would-be different text
	s2.Root.Children[0].Text = "different"
	s3 := mkScreen("B", "r1")

	sig1 := observe(b, s1)
	sig2 := observe(b, s2)
	sig3 := observe(b, s3)
	if sig1 != sig2 {
		t.Fatal("text variants must share a signature")
	}
	if sig1 == sig3 {
		t.Fatal("different activities must not collide")
	}
	if b.Len() != 2 {
		t.Fatalf("Book.Len = %d, want 2", b.Len())
	}
	if got := b.Signatures(); len(got) != 2 || got[0] != sig1 {
		t.Fatalf("Signatures = %v", got)
	}
	if b.Lookup(sig1) != s1 || b.Lookup(sig3).Activity != "B" {
		t.Fatal("Lookup returned wrong exemplar")
	}
	if b.Lookup(ui.Signature(12345)) != nil {
		t.Fatal("Lookup of unknown signature must be nil")
	}
}

// TestBookRendersOnlyOnFirstSight checks that Observe builds a hierarchy
// only for a signature it has not seen, and keeps that hierarchy as is.
func TestBookRendersOnlyOnFirstSight(t *testing.T) {
	b := NewBook()
	renders := 0
	render := func(activity string) func() *ui.Screen {
		return func() *ui.Screen { renders++; return mkScreen(activity, "r1") }
	}
	b.Observe(1, render("A"))
	first := b.Lookup(1)
	b.Observe(1, render("A"))
	b.Observe(2, render("B"))
	b.Observe(1, render("A"))
	if renders != 2 {
		t.Fatalf("render called %d times for 2 distinct signatures", renders)
	}
	if b.Lookup(1) != first || first.Activity != "A" || b.Lookup(2).Activity != "B" {
		t.Fatal("Book must keep the first-sight render of each signature")
	}
	if got := b.Signatures(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Signatures = %v, want first-seen order [1 2]", got)
	}
}

func TestLogReplay(t *testing.T) {
	var l Log
	for i := 1; i <= 4; i++ {
		l.Append(Event{At: sim.Duration(i), To: ui.Signature(i)})
	}
	var got []ui.Signature
	l.Replay(func(e Event) { got = append(got, e.To) })
	if len(got) != 4 {
		t.Fatalf("Replay visited %d events", len(got))
	}
	for i, sig := range got {
		if sig != ui.Signature(i+1) {
			t.Fatalf("Replay out of order: %v", got)
		}
	}
	var empty Log
	empty.Replay(func(Event) { t.Fatal("empty log must not invoke fn") })
}
