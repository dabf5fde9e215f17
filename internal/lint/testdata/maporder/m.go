// Package m is maporder testdata. The analyzer is not path-scoped: output
// must never depend on map iteration order anywhere in the module.
package m

import (
	"fmt"
	"io"
	"sort"
)

func flaggedAppendNeverSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "append to keys while ranging over a map"
	}
	return keys
}

func flaggedFprintf(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want "fmt.Fprintf while ranging over a map"
	}
}

func flaggedWriterMethod(w io.Writer, m map[string]int) {
	for k := range m {
		w.Write([]byte(k)) // want "Write call while ranging over a map"
	}
}

func flaggedConcat(m map[string]int) string {
	s := ""
	for k := range m {
		s += k // want "string built up while ranging over a map"
	}
	return s
}

func flaggedChannelSend(ch chan string, m map[string]int) {
	for k := range m {
		ch <- k // want "channel send while ranging over a map"
	}
}

// The blessed pattern: collect the keys, sort, then range over the slice.
func allowedCollectAndSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func allowedSortSlice(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// A local helper whose name says it sorts gets credit too.
func allowedLocalSortHelper(m map[uint64]bool) []uint64 {
	var members []uint64
	for k := range m {
		members = append(members, k)
	}
	sortUint64(members)
	return members
}

func sortUint64(xs []uint64) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
}

// Commutative aggregation does not depend on visit order.
func allowedCommutative(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// Slices iterate in index order; only map ranges are suspect.
func allowedSliceRange(w io.Writer, xs []string) {
	for _, x := range xs {
		fmt.Fprintln(w, x)
	}
}

func justified(w io.Writer, m map[string]int) {
	for k := range m {
		//lint:allow maporder "debug dump behind a flag; order is irrelevant"
		fmt.Fprintln(w, k)
	}
}
