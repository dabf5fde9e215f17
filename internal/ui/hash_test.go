package ui_test

import (
	"hash"
	"hash/fnv"
	"maps"
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

func checkAgainstOracle(t *testing.T, what string, s *ui.Screen) {
	t.Helper()
	if got, want := s.Abstract(), oracleAbstract(s); got != want {
		t.Fatalf("%s: Abstract = %v, hash/fnv oracle = %v", what, got, want)
	}
	if s.Root == nil {
		return
	}
	if got, want := ui.PathMultiset(s.Root), oraclePaths(s.Root); !maps.Equal(got, want) {
		t.Fatalf("%s: path multiset differs from the hash/fnv oracle:\n got %v\nwant %v", what, got, want)
	}
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
	for i := 0; i < 1000; i++ {
		s := &ui.Screen{Activity: randString(rng)}
		if i%50 != 0 {
			s.Root = randTree(rng, rng.Intn(6))
		}
		checkAgainstOracle(t, "random tree", s)
	}
}

func TestHashesMatchFNVOracleOnCatalogScreens(t *testing.T) {
	for _, name := range []string{"Filters For Selfie", "Sketch", "Zedge"} {
		a := apps.MustLoad(name)
		for _, s := range a.Screens {
			checkAgainstOracle(t, name+"/"+s.Title, a.Render(s.ID, 2))
		}
	}
}
