package lbgraph

import "testing"

func benchFixed(b *testing.B, p Params, cached bool) {
	l, err := NewLinear(p)
	if err != nil {
		b.Fatal(err)
	}
	SharedBuildCache().Reset()
	prev := SetCacheEnabled(cached)
	defer SetCacheEnabled(prev)
	if cached {
		if _, err := l.BuildFixed(); err != nil { // prime
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.BuildFixed(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildFixedUncachedT4(b *testing.B) {
	benchFixed(b, Params{T: 4, Alpha: 1, Ell: 5}, false)
}

func BenchmarkBuildFixedCachedT4(b *testing.B) {
	benchFixed(b, Params{T: 4, Alpha: 1, Ell: 5}, true)
}
