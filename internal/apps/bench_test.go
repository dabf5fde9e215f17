package apps

import "testing"

// BenchmarkGenerate measures generating a catalog app from its spec: the
// per-cell setup cost of every campaign cell and service run.
func BenchmarkGenerate(b *testing.B) {
	for _, name := range []string{"Filters For Selfie", "Zedge"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Load(name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
