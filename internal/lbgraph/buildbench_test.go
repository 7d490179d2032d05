package lbgraph

import "testing"

// BenchmarkBuildFixedT4 times one fixed construction of the t=4 linear
// family from scratch.
func BenchmarkBuildFixedT4(b *testing.B) {
	l, err := NewLinear(Params{T: 4, Alpha: 1, Ell: 5})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.BuildFixed(); err != nil {
			b.Fatal(err)
		}
	}
}
