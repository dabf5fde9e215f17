package ui_test

import (
	"hash"
	"hash/fnv"
	"maps"
	"math"
	"testing"

	"taopt/internal/apps"
	"taopt/internal/sim"
	"taopt/internal/ui"
)

// oracleAbstract is the signature as first written, through the hash/fnv
// writer. The inline hash must reproduce it bit for bit: signatures key the
// screen book, block sets and every golden downstream of a run.
func oracleAbstract(s *ui.Screen) ui.Signature {
	h := fnv.New64a()
	h.Write([]byte(s.Activity))
	h.Write([]byte{0})
	oracleWrite(h, s.Root)
	return ui.Signature(h.Sum64())
}

func oracleWrite(h hash.Hash64, n *ui.Node) {
	if n == nil {
		return
	}
	h.Write([]byte{'('})
	h.Write([]byte(n.Class))
	h.Write([]byte{'#'})
	h.Write([]byte(n.ResourceID))
	for _, ch := range n.Children {
		oracleWrite(h, ch)
	}
	h.Write([]byte{')'})
}

// oraclePaths is the similarity's path multiset through hash/fnv.
func oraclePaths(root *ui.Node) map[uint64]int {
	out := make(map[uint64]int)
	var rec func(n *ui.Node, prefix uint64)
	rec = func(n *ui.Node, prefix uint64) {
		h := fnv.New64a()
		var buf [8]byte
		for i := range buf {
			buf[i] = byte(prefix >> (8 * i))
		}
		h.Write(buf[:])
		h.Write([]byte(n.Class))
		h.Write([]byte{'#'})
		h.Write([]byte(n.ResourceID))
		key := h.Sum64()
		out[key]++
		for _, ch := range n.Children {
			rec(ch, key)
		}
	}
	rec(root, 0)
	return out
}

// oracleSimilarity is the tree similarity as first written: the Dice
// coefficient of two path multisets held in maps.
func oracleSimilarity(a, b *ui.Node) float64 {
	if a == nil || b == nil {
		if a == b {
			return 1
		}
		return 0
	}
	pa, pb := oraclePaths(a), oraclePaths(b)
	if len(pa) == 0 && len(pb) == 0 {
		return 1
	}
	var inter, total int
	for k, ca := range pa {
		total += ca
		if cb, ok := pb[k]; ok {
			inter += min(ca, cb)
		}
	}
	for _, cb := range pb {
		total += cb
	}
	if total == 0 {
		return 1
	}
	return float64(2*inter) / float64(total)
}

func checkAgainstOracle(t *testing.T, what string, s *ui.Screen) {
	t.Helper()
	if got, want := s.Abstract(), oracleAbstract(s); got != want {
		t.Fatalf("%s: Abstract = %v, hash/fnv oracle = %v", what, got, want)
	}
	if s.Root == nil {
		return
	}
	got := make(map[uint64]int)
	paths := ui.Paths(s.Root)
	for i, pc := range paths {
		if i > 0 && paths[i-1].Key >= pc.Key {
			t.Fatalf("%s: path vector not strictly sorted at %d: %v", what, i, paths)
		}
		got[pc.Key] = pc.Count
	}
	if want := oraclePaths(s.Root); !maps.Equal(got, want) {
		t.Fatalf("%s: path multiset differs from the hash/fnv oracle:\n got %v\nwant %v", what, got, want)
	}
}

// checkSimilarity requires the sorted-vector Dice to equal the map-based
// oracle bit for bit, through both Similarity and cached vectors.
func checkSimilarity(t *testing.T, what string, a, b *ui.Node) {
	t.Helper()
	want := math.Float64bits(oracleSimilarity(a, b))
	if got := math.Float64bits(ui.Similarity(a, b)); got != want {
		t.Fatalf("%s: Similarity = %v, map oracle = %v", what, math.Float64frombits(got), math.Float64frombits(want))
	}
	if got := math.Float64bits(ui.Dice(ui.Paths(b), ui.Paths(a))); got != want {
		t.Fatalf("%s: Dice(b, a) = %v, map oracle = %v", what, math.Float64frombits(got), math.Float64frombits(want))
	}
}

// mutate returns a copy of n with one random subtree dropped or
// duplicated, so the pair shares most but not all of its paths.
func mutate(rng *sim.RNG, n *ui.Node) *ui.Node {
	c := n.Clone()
	at := c
	for len(at.Children) > 0 && rng.Bool(0.6) {
		at = at.Children[rng.Intn(len(at.Children))]
	}
	if len(at.Children) == 0 {
		at.Children = append(at.Children, c.Clone())
		return c
	}
	i := rng.Intn(len(at.Children))
	if rng.Bool(0.5) {
		at.Children = append(at.Children[:i], at.Children[i+1:]...)
	} else {
		at.Children = append(at.Children, at.Children[i].Clone())
	}
	return c
}

// randString draws a short string over ASCII, the hash's separator bytes
// and multi-byte runes, empty about one time in six.
func randString(rng *sim.RNG) string {
	const alphabet = "abcXYZ09_.:/#()\x00"
	runes := []string{"·", "é", "界"}
	n := rng.Intn(12) - 2
	var out []byte
	for i := 0; i < n; i++ {
		if rng.Bool(0.1) {
			out = append(out, runes[rng.Intn(len(runes))]...)
			continue
		}
		out = append(out, alphabet[rng.Intn(len(alphabet))])
	}
	return string(out)
}

func randTree(rng *sim.RNG, depth int) *ui.Node {
	n := &ui.Node{Class: randString(rng), ResourceID: randString(rng), Text: randString(rng)}
	if depth > 0 {
		for i := rng.Intn(5); i > 0; i-- {
			n.Children = append(n.Children, randTree(rng, depth-1))
		}
	}
	return n
}

func TestHashesMatchFNVOracleOnRandomTrees(t *testing.T) {
	rng := sim.NewRNG(20)
	var prev *ui.Node
	for i := 0; i < 1000; i++ {
		s := &ui.Screen{Activity: randString(rng)}
		if i%50 != 0 {
			s.Root = randTree(rng, rng.Intn(6))
		}
		checkAgainstOracle(t, "random tree", s)
		checkSimilarity(t, "random tree vs itself", s.Root, s.Root)
		checkSimilarity(t, "random tree vs previous", s.Root, prev)
		if s.Root != nil {
			checkSimilarity(t, "random tree vs mutant", s.Root, mutate(rng, s.Root))
		}
		prev = s.Root
	}
}

func TestHashesMatchFNVOracleOnCatalogScreens(t *testing.T) {
	for _, name := range []string{"Filters For Selfie", "Sketch", "Zedge"} {
		a := apps.MustLoad(name)
		var screens []*ui.Screen
		for _, s := range a.Screens {
			r := a.Render(s.ID, 2)
			checkAgainstOracle(t, name+"/"+s.Title, r)
			screens = append(screens, r)
		}
		// Each screen against itself, its predecessor, the main screen and
		// one drawn at random: same-activity neighbours share most paths.
		rng := sim.NewRNG(int64(len(screens)))
		for i, x := range screens {
			for _, y := range []*ui.Screen{x, screens[max(i-1, 0)], screens[0], screens[rng.Intn(len(screens))]} {
				checkSimilarity(t, name+"/"+x.Activity, x.Root, y.Root)
			}
		}
	}
}

func TestDiceDoesNotAllocate(t *testing.T) {
	a := apps.MustLoad("Zedge")
	x, y := ui.Paths(a.Render(0, 1).Root), ui.Paths(a.Render(1, 1).Root)
	sx, sy := ui.ShapeOf(a.Render(0, 1)), ui.ShapeOf(a.Render(1, 1))
	if n := testing.AllocsPerRun(100, func() { ui.Dice(x, y) }); n != 0 {
		t.Fatalf("Dice allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { ui.ShapeSimilarity(sx, sy) }); n != 0 {
		t.Fatalf("ShapeSimilarity allocates %v times per call", n)
	}
}
